// Package typhoon implements the forecast-experiment machinery of the
// paper's headline demonstration (§7.1, Figs 1, 6, 7): seeding a
// Holland-profile tropical-cyclone vortex into the atmosphere component,
// tracking the storm center through the simulation (minimum surface
// pressure with a vorticity check), comparing the simulated track and
// intensity against a bundled CMA-style best track of Super Typhoon Doksuri
// (2023), and the structure diagnostics (radius of maximum wind,
// fine-scale variance) that distinguish the high-resolution run from the
// coarse one in Fig 6.
package typhoon

import (
	"fmt"
	"math"
	"time"

	"repro/internal/atmos"
	"repro/internal/grid"
)

// TrackPoint is one position fix of a tropical cyclone.
type TrackPoint struct {
	Time    time.Time
	LonDeg  float64
	LatDeg  float64
	WindMS  float64 // maximum sustained wind, m/s
	PressPa float64 // central pressure, Pa
}

// BestTrackDoksuri returns a daily CMA-style best track of Super Typhoon
// Doksuri (July 2023), digitized approximately from public advisories: the
// storm formed east of the Philippines on 21 July, intensified to super
// typhoon strength while crossing the Luzon Strait around 25 July, and made
// landfall in Fujian on 28 July with extreme rainfall over China.
func BestTrackDoksuri() []TrackPoint {
	day := func(d int) time.Time {
		return time.Date(2023, 7, d, 0, 0, 0, 0, time.UTC)
	}
	return []TrackPoint{
		{day(21), 131.5, 14.0, 18, 100000},
		{day(22), 129.3, 15.4, 25, 99200},
		{day(23), 127.0, 16.3, 33, 97500},
		{day(24), 124.6, 17.6, 42, 95500},
		{day(25), 122.4, 19.8, 55, 92500},
		{day(26), 120.6, 21.8, 50, 93500},
		{day(27), 119.9, 23.6, 42, 95500},
		{day(28), 119.0, 25.6, 38, 96500},
	}
}

// SeedConfig describes the initial vortex.
type SeedConfig struct {
	LonDeg   float64
	LatDeg   float64
	DeltaPs  float64 // central pressure deficit, Pa
	RadiusKm float64 // radius of maximum wind
	Moisten  bool    // saturate the core for rainfall
}

// DoksuriSeed returns the genesis-position seed matching the best track's
// first fix.
func DoksuriSeed() SeedConfig {
	return SeedConfig{LonDeg: 131.5, LatDeg: 14.0, DeltaPs: 1500, RadiusKm: 300, Moisten: true}
}

// Seed plants a warm-core, gradient-balanced Holland-profile vortex in the
// atmosphere model: a surface pressure depression, cyclonic tangential
// winds on every level (decaying upward), and optionally a moistened core.
// On a decomposed model every rank must call it: the patch's received
// edges are refreshed from their senders.
func Seed(m *atmos.Model, cfg SeedConfig) error {
	if cfg.DeltaPs <= 0 || cfg.RadiusKm <= 0 {
		return fmt.Errorf("typhoon: non-positive vortex parameters")
	}
	mesh := m.Mesh
	nc, ne := mesh.NCells(), mesh.NEdges()
	center := grid.FromLonLat(cfg.LonDeg*math.Pi/180, cfg.LatDeg*math.Pi/180)
	rm := cfg.RadiusKm * 1000 / grid.EarthRadius // radians
	sign := 1.0
	if cfg.LatDeg < 0 {
		sign = -1 // cyclonic is clockwise in the southern hemisphere
	}

	// Surface pressure: Holland-like exponential depression.
	for c := 0; c < nc; c++ {
		r := grid.GreatCircleDist(mesh.CellCenter[c], center)
		m.Ps[c] -= cfg.DeltaPs * math.Exp(-pow15(r/rm))
		if cfg.Moisten && r < 3*rm {
			kb := m.NLev - 1
			for k := kb; k >= m.NLev*2/3; k-- {
				i := m.Idx(c, k)
				p := m.SigmaP(k, c)
				m.Qv[i] = math.Min(0.95*qsatLocal(m.T[i], p), m.Qv[i]*4+0.004)
			}
		}
		// Warm core in the mid troposphere.
		if r < 3*rm {
			for k := m.NLev / 3; k < m.NLev*2/3; k++ {
				m.T[m.Idx(c, k)] += 2 * math.Exp(-pow15(r/rm))
			}
		}
	}

	// Tangential wind at edges: v(r) = vmax·(r/rm)·exp(1−(r/rm)^1.5) style
	// profile, applied as the edge-normal projection of the azimuthal flow,
	// decaying with height.
	vmax := math.Sqrt(cfg.DeltaPs / 1.15) // rough gradient-wind scale
	for e := 0; e < ne; e++ {
		if ce := mesh.CellsOnEdge[e]; ce[0] < 0 || ce[1] < 0 {
			continue // a patch edge without its outer cell: seeded by its sender (below)
		}
		mid := mesh.EdgeMidpoint(e)
		r := grid.GreatCircleDist(mid, center)
		if r > 8*rm || r < 1e-9 {
			continue
		}
		x := r / rm
		v := vmax * x * math.Exp(1-x*x)
		// Azimuthal unit vector at mid: ĉ = normalize(center × mid) gives
		// counterclockwise (cyclonic, NH) circulation around the center.
		az := center.Cross(mid)
		if az.Norm() < 1e-12 {
			continue
		}
		az = az.Normalize().Scale(sign)
		proj := v * az.Dot(m.EdgeNormal(e))
		for k := 0; k < m.NLev; k++ {
			depth := float64(k+1) / float64(m.NLev) // stronger near the surface
			m.U[m.Idx(e, k)] += proj * depth
		}
	}
	if d := m.Decomp(); d != nil {
		// The edges a patch receives include those without their outer
		// cell, whose midpoint only the sending rank can form: take the
		// seeded values from it.
		d.ExchangeEdges(m.U, m.NLev)
	}
	return nil
}

// pow15 returns x^1.5 for x >= 0.
func pow15(x float64) float64 { return x * math.Sqrt(x) }

func qsatLocal(t, p float64) float64 {
	es := 610.78 * math.Exp(17.27*(t-273.15)/(t-35.85))
	q := 0.622 * es / math.Max(p-0.378*es, 1)
	return math.Min(q, 0.08)
}

// Fix is one simulated storm-center fix.
type Fix struct {
	Time    time.Time
	LonDeg  float64
	LatDeg  float64
	PressPa float64
	WindMS  float64 // maximum lowest-level wind within the search radius
}

// FindCenter locates the storm in the model: the minimum surface pressure
// cell, validated by cyclonic vorticity, with the peak 10 m wind within
// searchKm of the center.
func FindCenter(m *atmos.Model, at time.Time, searchKm float64) (Fix, error) {
	minPs, c := m.MinPs()
	if c < 0 {
		return Fix{}, fmt.Errorf("typhoon: no pressure minimum found")
	}
	lon := m.Mesh.LonCell[c] * 180 / math.Pi
	if lon < 0 {
		lon += 360
	}
	lat := m.Mesh.LatCell[c] * 180 / math.Pi

	u, v := m.Wind10m()
	center := m.Mesh.CellCenter[c]
	rad := searchKm * 1000 / grid.EarthRadius
	var wmax float64
	for i := 0; i < m.Mesh.NCells(); i++ {
		if grid.GreatCircleDist(m.Mesh.CellCenter[i], center) > rad {
			continue
		}
		if s := math.Hypot(u[i], v[i]); s > wmax {
			wmax = s
		}
	}
	return Fix{Time: at, LonDeg: lon, LatDeg: lat, PressPa: minPs, WindMS: wmax}, nil
}

// FindCenterNear locates the storm as the minimum surface pressure within
// windowKm of a previous fix — the standard tracker practice that keeps the
// tracker locked on the storm when deeper synoptic lows exist elsewhere on
// the globe. Valid only when the model's fields are globally live
// (replicated runs).
func FindCenterNear(m *atmos.Model, at time.Time, prev Fix, windowKm, searchKm float64) (Fix, error) {
	mesh, ps := m.Mesh, m.Ps
	u, v := m.Wind10m()
	pcen := grid.FromLonLat(prev.LonDeg*math.Pi/180, prev.LatDeg*math.Pi/180)
	window := windowKm * 1000 / grid.EarthRadius
	best, at2 := math.Inf(1), -1
	for c := 0; c < mesh.NCells(); c++ {
		if grid.GreatCircleDist(mesh.CellCenter[c], pcen) > window {
			continue
		}
		if ps[c] < best {
			best, at2 = ps[c], c
		}
	}
	if at2 < 0 {
		return Fix{}, fmt.Errorf("typhoon: no cells within %v km of previous fix", windowKm)
	}
	lon := mesh.LonCell[at2] * 180 / math.Pi
	if lon < 0 {
		lon += 360
	}
	lat := mesh.LatCell[at2] * 180 / math.Pi

	center := mesh.CellCenter[at2]
	rad := searchKm * 1000 / grid.EarthRadius
	var wmax float64
	for i := 0; i < mesh.NCells(); i++ {
		if grid.GreatCircleDist(mesh.CellCenter[i], center) > rad {
			continue
		}
		if s := math.Hypot(u[i], v[i]); s > wmax {
			wmax = s
		}
	}
	return Fix{Time: at, LonDeg: lon, LatDeg: lat, PressPa: best, WindMS: wmax}, nil
}

// GreatCircleKm returns the distance between two (lon, lat) fixes in km.
func GreatCircleKm(lon1, lat1, lon2, lat2 float64) float64 {
	a := grid.FromLonLat(lon1*math.Pi/180, lat1*math.Pi/180)
	b := grid.FromLonLat(lon2*math.Pi/180, lat2*math.Pi/180)
	return grid.GreatCircleDist(a, b) * grid.EarthRadius / 1000
}

// TrackError returns the mean great-circle separation (km) between
// simulated fixes and best-track points at matching times (nearest best
// point within 12 h; fixes without a match are skipped).
func TrackError(sim []Fix, best []TrackPoint) (float64, error) {
	if len(sim) == 0 || len(best) == 0 {
		return 0, fmt.Errorf("typhoon: empty track")
	}
	var sum float64
	var n int
	for _, f := range sim {
		var nearest *TrackPoint
		bestDt := 12 * time.Hour
		for i := range best {
			dt := f.Time.Sub(best[i].Time)
			if dt < 0 {
				dt = -dt
			}
			if dt <= bestDt {
				bestDt = dt
				nearest = &best[i]
			}
		}
		if nearest == nil {
			continue
		}
		sum += GreatCircleKm(f.LonDeg, f.LatDeg, nearest.LonDeg, nearest.LatDeg)
		n++
	}
	if n == 0 {
		return 0, fmt.Errorf("typhoon: no time-matched fixes")
	}
	return sum / float64(n), nil
}

// RadiusOfMaxWind estimates the storm's eye size: the mean distance (km)
// from the center to the cells in the top percentile of 10 m wind within
// searchKm. Finer meshes resolve a more compact eye (Fig 6a vs 6b).
func RadiusOfMaxWind(m *atmos.Model, fix Fix, searchKm float64) float64 {
	u, v := m.Wind10m()
	center := grid.FromLonLat(fix.LonDeg*math.Pi/180, fix.LatDeg*math.Pi/180)
	rad := searchKm * 1000 / grid.EarthRadius
	var wmax float64
	for c := 0; c < m.Mesh.NCells(); c++ {
		if grid.GreatCircleDist(m.Mesh.CellCenter[c], center) > rad {
			continue
		}
		if s := math.Hypot(u[c], v[c]); s > wmax {
			wmax = s
		}
	}
	if wmax == 0 {
		return 0
	}
	var sum float64
	var n int
	for c := 0; c < m.Mesh.NCells(); c++ {
		r := grid.GreatCircleDist(m.Mesh.CellCenter[c], center)
		if r > rad {
			continue
		}
		if math.Hypot(u[c], v[c]) >= 0.9*wmax {
			sum += r * grid.EarthRadius / 1000
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

// FineScaleVariance measures resolved small-scale structure: the mean
// squared physical gradient of a cell field across edges (per metre),
// normalized by the field variance. A coarse mesh smooths sharp eyewall and
// frontal gradients, so higher resolution resolves more gradient variance —
// the Fig 6c vs 6d contrast for the ocean Rossby-number response and the
// wind field.
func FineScaleVariance(mesh *grid.IcosMesh, field []float64) float64 {
	if len(field) != mesh.NCells() {
		return 0
	}
	var mean float64
	for _, v := range field {
		mean += v
	}
	mean /= float64(len(field))
	var varF float64
	for _, v := range field {
		varF += (v - mean) * (v - mean)
	}
	varF /= float64(len(field))
	if varF == 0 {
		return 0
	}
	var grad float64
	for e := 0; e < mesh.NEdges(); e++ {
		c1, c2 := mesh.CellsOnEdge[e][0], mesh.CellsOnEdge[e][1]
		d := (field[c2] - field[c1]) / (mesh.Dc[e] * grid.EarthRadius)
		grad += d * d
	}
	grad /= float64(mesh.NEdges())
	return grad / varF
}
