package grid

import (
	"fmt"
	"math"
)

// Tripolar is the structured ocean/sea-ice grid of the reproduction — a
// latitude–longitude grid that is periodic in longitude and closes the
// Arctic with a fold row, standing in for LICOM's tripolar grid (which
// displaces the two northern poles onto land; the fold here reproduces the
// same communication pattern across the top boundary without the metric
// distortion machinery).
//
// Cell (i, j) has center longitude Lon[i], latitude Lat[j], i fastest.
// The analytic land mask produces ≈71 % ocean coverage, matching the
// motivation for the non-ocean-point exclusion optimization (§5.2.2).
//
// The grid stores O(NX+NY) values, never one per column: a cell's area is
// its row's DX·DY (CellArea), and the land mask, depth and level count of a
// column come from the separable analytic bathymetry, whose per-column and
// per-row factors the grid keeps (Column). Every rank builds its own grid,
// so a per-column table here would be paid once per rank.
type Tripolar struct {
	NX, NY int
	NLevel int

	Lon []float64 // [NX] cell-center longitudes, radians, [0, 2π)
	Lat []float64 // [NY] cell-center latitudes, radians, south to north

	DX []float64 // [NY] zonal cell width in metres at each latitude row
	DY float64   // meridional cell height in metres (uniform)

	// LevelDepth[k] is the depth of the bottom of level k in metres.
	LevelDepth []float64 // [NLevel]

	// The bathymetry's factors of each column's longitude and each row's
	// latitude, and the columns SetLand turned into land.
	cols []basinLon // [NX]
	rows []basinLat // [NY]
	land map[int]bool
}

// LICOMConfig is one row of the LICOM resolution catalog (Table 1): the
// nominal resolution in km and the global grid extents used by the paper.
type LICOMConfig struct {
	ResKm      int
	NLon, NLat int
	NLevel     int
}

// LICOMCatalog reproduces the ocean columns of Table 1. Grid extents are
// configuration constants of the original model (a 0.01° tripolar grid at
// 1 km, and proportional coarsenings), not derivable quantities.
var LICOMCatalog = []LICOMConfig{
	{ResKm: 1, NLon: 36000, NLat: 22018, NLevel: 80},
	{ResKm: 2, NLon: 18000, NLat: 11511, NLevel: 80},
	{ResKm: 3, NLon: 10800, NLat: 6907, NLevel: 80},
	{ResKm: 5, NLon: 7200, NLat: 4605, NLevel: 80},
	{ResKm: 10, NLon: 3600, NLat: 2302, NLevel: 80},
}

// LICOMConfigForRes returns the catalog row for a nominal resolution.
func LICOMConfigForRes(resKm int) (LICOMConfig, error) {
	for _, c := range LICOMCatalog {
		if c.ResKm == resKm {
			return c, nil
		}
	}
	return LICOMConfig{}, fmt.Errorf("grid: no LICOM configuration at %d km", resKm)
}

// southLat is the southern boundary of the ocean grid (78.5°S, the LICOM
// convention: the grid stops at the Antarctic coast).
const southLat = -78.5 * math.Pi / 180

// northLat is the northern boundary, where the tripolar fold seam closes
// the domain. A real tripolar grid displaces its two northern poles onto
// land so cell widths stay bounded; the reproduction emulates that by
// capping the grid at 85°N, keeping the zonal spacing away from the
// converging-meridian singularity.
const northLat = 85.0 * math.Pi / 180

// NewTripolar builds an nx × ny × nlevel ocean grid with the analytic land
// mask and bathymetry. nx must be even (required by the fold exchange).
func NewTripolar(nx, ny, nlevel int) (*Tripolar, error) {
	if nx <= 0 || ny <= 0 || nlevel <= 0 {
		return nil, fmt.Errorf("grid: invalid tripolar extents %d×%d×%d", nx, ny, nlevel)
	}
	if nx%2 != 0 {
		return nil, fmt.Errorf("grid: tripolar nx must be even for the fold, got %d", nx)
	}
	g := &Tripolar{NX: nx, NY: ny, NLevel: nlevel}

	g.Lon = make([]float64, nx)
	for i := range g.Lon {
		g.Lon[i] = (float64(i) + 0.5) * 2 * math.Pi / float64(nx)
	}
	g.Lat = make([]float64, ny)
	dlat := (northLat - southLat) / float64(ny)
	for j := range g.Lat {
		g.Lat[j] = southLat + (float64(j)+0.5)*dlat
	}
	g.DY = dlat * EarthRadius
	g.DX = make([]float64, ny)
	dlon := 2 * math.Pi / float64(nx)
	g.rows = make([]basinLat, ny)
	for j, lat := range g.Lat {
		g.DX[j] = dlon * EarthRadius * math.Cos(lat)
		g.rows[j] = basinLatOf(lat)
	}
	g.cols = make([]basinLon, nx)
	for i, lon := range g.Lon {
		g.cols[i] = basinLonOf(lon)
	}
	g.LevelDepth = stretchedLevels(nlevel)
	return g, nil
}

// CellArea returns the area in m² of each cell of row j.
func (g *Tripolar) CellArea(j int) float64 { return g.DX[j] * g.DY }

// Column returns whether surface column gi is ocean, its analytic depth in
// metres and its number of active vertical levels (false, 0, 0 on land).
func (g *Tripolar) Column(gi int) (wet bool, depth float64, kmt int) {
	if g.land[gi] {
		return false, 0, 0
	}
	d := analyticDepth(g.cols[gi%g.NX], g.rows[gi/g.NX])
	if d <= 0 {
		return false, 0, 0
	}
	return true, d, levelsFor(d, g.LevelDepth)
}

// Wet reports whether surface column gi is ocean.
func (g *Tripolar) Wet(gi int) bool {
	wet, _, _ := g.Column(gi)
	return wet
}

// SetLand turns column gi into land: tests dry out whole blocks (land-block
// elimination) and regions (unmapped atmosphere cells) with it.
func (g *Tripolar) SetLand(gi int) {
	if g.land == nil {
		g.land = map[int]bool{}
	}
	g.land[gi] = true
}

// stretchedLevels returns bottom depths for nlevel vertical levels with the
// usual upper-ocean refinement: ~10 m surface layers stretching to ~150 m
// layers toward a 5500 m maximum depth.
func stretchedLevels(nlevel int) []float64 {
	const maxDepth = 5500.0
	out := make([]float64, nlevel)
	for k := 0; k < nlevel; k++ {
		s := (float64(k) + 1) / float64(nlevel)
		// Cubic stretching: fine near the surface.
		out[k] = maxDepth * (0.15*s + 0.85*s*s*s)
	}
	return out
}

// levelsFor returns the number of whole levels above depth d.
func levelsFor(d float64, levels []float64) int {
	n := 0
	for _, bot := range levels {
		if bot <= d {
			n++
		} else {
			break
		}
	}
	if n == 0 {
		n = 1 // any ocean point keeps at least the surface level
	}
	return n
}

// analyticDepth is the synthetic bathymetry: a smooth basin structure with
// idealized continents, tuned so the global ocean fraction is ≈71 %.
// Returns 0 over land, positive depth in metres over ocean.
func analyticDepth(x basinLon, y basinLat) float64 {
	if landFunction(x.land, y.land) > 0 {
		return 0
	}
	// Basin depth: deep mid-basin, shallower near the (smooth) coasts and
	// along a mid-ocean-ridge-like feature.
	d := 4200 + x.wave*y.wave - x.ridge
	if d < 100 {
		d = 100
	}
	return d
}

// IsLand reports whether the analytic continents cover (lon, lat), both in
// radians. The atmosphere and land components share this mask so that
// surface types agree across components without a remapping file.
func IsLand(lon, lat float64) bool { return landFunction(landLonOf(lon), landLatOf(lat)) > 0 }

// The idealized continents: two meridional "americas/afro-eurasia" bands
// widening to the north and an "east Asia extension", each centred at lonC
// with half-width halfW (degrees) between latitudes latS and latN, with a
// wavy coastline; "australia" and "greenland" elliptical blobs centred at
// (lonC, latC) with semi-axes a (lon degrees) and b (lat degrees); and an
// antarctic cap. Tuned to ≈29 % land.
var (
	landBands = [...]struct{ lonC, halfW, latS, latN float64 }{
		{280, 14, -55, 75}, {45, 30, -35, 75}, {105, 18, 5, 72},
	}
	landBlobs = [...]struct{ lonC, latC, a, b float64 }{
		{133, -25, 20, 12}, {318, 72, 14, 10},
	}
)

// landLon and landLat are the factors of landFunction that depend on the
// longitude alone and on the latitude alone, and basinLon and basinLat add
// analyticDepth's: the analytic land and bathymetry are separable, so a grid
// takes them once per column and once per row.
type landLon struct {
	band [len(landBands)]float64 // degrees from each band's centre line
	blob [len(landBlobs)]float64 // each blob's (Δlon/a)²
}

type landLat struct {
	south bool                    // on the antarctic cap
	in    [len(landBands)]bool    // between each band's latitudes
	band  [len(landBands)]float64 // each band's wavy half-width, degrees
	blob  [len(landBlobs)]float64 // each blob's (Δlat/b)²
}

type basinLon struct {
	land  landLon
	ridge float64 // the mid-ocean ridge's depth, metres
	wave  float64 // 800·cos 3λ
}

type basinLat struct {
	land landLat
	wave float64 // cos 2φ
}

func basinLonOf(lon float64) basinLon {
	ridge := math.Exp(-squared((math.Mod(lon+math.Pi, 2*math.Pi)-math.Pi)*2)) * 1500
	return basinLon{landLonOf(lon), ridge, 800 * math.Cos(3*lon)}
}

func basinLatOf(lat float64) basinLat { return basinLat{landLatOf(lat), math.Cos(2 * lat)} }

func landLonOf(lon float64) landLon {
	lonD := lon * (180 / math.Pi)
	var x landLon
	for k, b := range landBands {
		x.band[k] = math.Abs(math.Mod(lonD-b.lonC+540, 360) - 180)
	}
	for k, b := range landBlobs {
		dl := math.Mod(lonD-b.lonC+540, 360) - 180
		x.blob[k] = dl * dl / (b.a * b.a)
	}
	return x
}

func landLatOf(lat float64) landLat {
	latD := lat * (180 / math.Pi)
	y := landLat{south: latD < -70}
	wavy := 1 + 0.25*math.Sin(latD/9) + 0.15*math.Cos(latD/5)
	for k, b := range landBands {
		y.in[k] = latD >= b.latS && latD <= b.latN
		y.band[k] = b.halfW * wavy
	}
	for k, b := range landBlobs {
		dla := latD - b.latC
		y.blob[k] = dla * dla / (b.b * b.b)
	}
	return y
}

// landFunction is positive over land: the largest of the bands' and blobs'
// memberships, each positive inside its shape, and of the antarctic cap
// (the grid starts at 78.5°S, so only its fringe appears).
func landFunction(x landLon, y landLat) float64 {
	v := -1.0
	if y.south {
		v = 1
	}
	for k := range landBands {
		if y.in[k] { // outside its latitudes a band's membership is -1
			v = max(v, y.band[k]-x.band[k])
		}
	}
	for k := range landBlobs {
		v = max(v, 1-(x.blob[k]+y.blob[k]))
	}
	return v
}

func squared(x float64) float64 { return x * x }

// ActivePoints3D returns the number of wet 3-D grid points (Σ KMT) and the
// total 3-D points (NX·NY·NLevel); their ratio drives the ≈30 % resource
// saving of the non-ocean-point exclusion.
func (g *Tripolar) ActivePoints3D() (active, total int64) {
	for idx := 0; idx < g.NX*g.NY; idx++ {
		_, _, k := g.Column(idx)
		active += int64(k)
	}
	return active, int64(g.NX) * int64(g.NY) * int64(g.NLevel)
}

// Index returns the flat surface index of column (i, j).
func (g *Tripolar) Index(i, j int) int { return j*g.NX + i }

// Coriolis returns the Coriolis parameter f = 2Ω sin(lat) at row j.
func (g *Tripolar) Coriolis(j int) float64 {
	const omega = 7.2921e-5
	return 2 * omega * math.Sin(g.Lat[j])
}
