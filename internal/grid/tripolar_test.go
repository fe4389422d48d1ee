package grid

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/par"
)

func TestTripolarConstruction(t *testing.T) {
	g, err := NewTripolar(72, 36, 20)
	if err != nil {
		t.Fatal(err)
	}
	if len(g.Lon) != 72 || len(g.Lat) != 36 || len(g.DX) != 36 {
		t.Fatal("extent mismatch")
	}
	// Latitudes run south to north inside (southLat, π/2).
	for j := 1; j < g.NY; j++ {
		if g.Lat[j] <= g.Lat[j-1] {
			t.Fatal("latitudes not increasing")
		}
	}
	if g.Lat[0] < southLat || g.Lat[g.NY-1] > math.Pi/2 {
		t.Fatal("latitude out of range")
	}
	// Level depths strictly increasing, 20 of them.
	for k := 1; k < g.NLevel; k++ {
		if g.LevelDepth[k] <= g.LevelDepth[k-1] {
			t.Fatal("level depths not increasing")
		}
	}
}

func TestTripolarValidation(t *testing.T) {
	if _, err := NewTripolar(0, 10, 5); err == nil {
		t.Error("accepted zero nx")
	}
	if _, err := NewTripolar(71, 36, 20); err == nil {
		t.Error("accepted odd nx")
	}
}

func TestOceanFractionNearSeventyOnePercent(t *testing.T) {
	// §5.2.2: oceans cover approximately 71% of the surface; the analytic
	// mask must land close so the exclusion experiment saves ~30%.
	g, err := NewTripolar(360, 180, 30)
	if err != nil {
		t.Fatal(err)
	}
	var ocean, total float64
	for idx := range g.NX * g.NY {
		a := g.CellArea(idx / g.NX)
		total += a
		if g.Wet(idx) {
			ocean += a
		}
	}
	if frac := ocean / total; frac < 0.66 || frac > 0.76 {
		t.Errorf("ocean fraction = %.3f, want ~0.71", frac)
	}
}

func TestMaskConsistentWithKMTAndDepth(t *testing.T) {
	g, _ := NewTripolar(144, 72, 30)
	for idx := range g.NX * g.NY {
		wet, depth, kmt := g.Column(idx)
		if wet {
			if depth <= 0 || kmt < 1 {
				t.Fatalf("ocean point %d: depth=%v kmt=%d", idx, depth, kmt)
			}
			if kmt > g.NLevel {
				t.Fatalf("kmt exceeds nlevel at %d", idx)
			}
		} else {
			if depth != 0 || kmt != 0 {
				t.Fatalf("land point %d: depth=%v kmt=%d", idx, depth, kmt)
			}
		}
	}
}

func TestActivePoints3DSaving(t *testing.T) {
	g, _ := NewTripolar(360, 180, 40)
	active, total := g.ActivePoints3D()
	saving := 1 - float64(active)/float64(total)
	// The 3-D saving combines the ~29% land fraction and bathymetry cut-off;
	// the paper reports ~30% resource reduction.
	if saving < 0.25 || saving > 0.45 {
		t.Errorf("3-D exclusion saving = %.3f, want 0.25–0.45", saving)
	}
}

func TestLICOMCatalogMatchesTable1(t *testing.T) {
	want := map[int][2]int{
		1:  {36000, 22018},
		2:  {18000, 11511},
		3:  {10800, 6907},
		5:  {7200, 4605},
		10: {3600, 2302},
	}
	for res, dims := range want {
		c, err := LICOMConfigForRes(res)
		if err != nil {
			t.Fatal(err)
		}
		if c.NLon != dims[0] || c.NLat != dims[1] || c.NLevel != 80 {
			t.Errorf("res %d: %+v", res, c)
		}
	}
	if _, err := LICOMConfigForRes(7); err == nil {
		t.Error("unknown resolution accepted")
	}
}

func TestCoriolisSignAndMagnitude(t *testing.T) {
	g, _ := NewTripolar(72, 36, 10)
	if g.Coriolis(0) >= 0 {
		t.Error("southern-hemisphere f not negative")
	}
	if g.Coriolis(g.NY-1) <= 0 {
		t.Error("northern f not positive")
	}
	// |f| <= 2Ω.
	for j := 0; j < g.NY; j++ {
		if math.Abs(g.Coriolis(j)) > 2*7.2921e-5+1e-12 {
			t.Fatal("f out of range")
		}
	}
}

func TestBlockDecompositionIndices(t *testing.T) {
	g, _ := NewTripolar(48, 24, 5)
	par.Run(4, func(c *par.Comm) {
		d, err := NewTripolarDecompLayout(g, c, 2, 2, 2)
		if err != nil {
			t.Error(err)
			return
		}
		if d.NI != 24 || d.NJ != 12 {
			t.Errorf("block %dx%d", d.NI, d.NJ)
		}
		// Global index of local origin.
		if d.GIdx(0, 0) != d.J0*48+d.I0 {
			t.Error("GIdx origin mismatch")
		}
		if d.LIdx(0, 0) != 2*d.LNI()+2 {
			t.Error("LIdx origin mismatch")
		}
	})
}

func TestBlockValidation(t *testing.T) {
	g, _ := NewTripolar(48, 24, 5)
	par.Run(4, func(c *par.Comm) {
		if _, err := NewTripolarDecompLayout(g, c, 4, 1, 0); err == nil {
			t.Error("halo 0 accepted")
		}
		if _, err := NewTripolarDecompLayout(g, c, 4, 1, 30); err == nil {
			t.Error("oversized halo accepted")
		}
	})
	par.Run(5, func(c *par.Comm) {
		if _, err := NewTripolarDecompLayout(g, c, 5, 1, 1); err == nil {
			t.Error("non-divisible layout accepted")
		}
	})
}

// globalSource maps global coordinates, ghosts included, to the owned cell
// whose value the halo exchange delivers there: periodic in x,
// zero-gradient at the closed south, and across the fold row NY+r a scalar
// reads row NY-1-r at the mirrored longitude while a vector component reads
// row NY-1 of its own longitude.
func globalSource(g *Tripolar, i, j int, vec bool) (int, int) {
	i = ((i % g.NX) + g.NX) % g.NX
	if j < 0 {
		j = 0
	}
	if j >= g.NY {
		if vec {
			return i, g.NY - 1
		}
		r := j - g.NY
		j = g.NY - 1 - r
		i = g.NX - 1 - i
	}
	return i, j
}

// haloCase is one drawn decomposition of the ghost test.
type haloCase struct {
	nx, ny, pbx, pby, halo int
	dry                    []int // (bx, by) of a block dried out to land, if any
}

// haloCases returns the nine hand-picked layouts, then n seeded draws of
// grid size, layout, halo width 1–2 and zero or one dried block.
func haloCases(seed int64, n int) []haloCase {
	cases := []haloCase{
		{24, 12, 1, 1, 1, nil},
		{24, 12, 2, 2, 1, nil},
		{24, 12, 4, 1, 1, nil},
		{24, 12, 1, 4, 1, nil},
		{24, 12, 2, 3, 1, nil},
		{24, 12, 2, 3, 2, nil},
		{24, 12, 2, 2, 1, []int{0, 0}}, // dry south-west block
		{24, 12, 3, 3, 1, []int{1, 1}}, // dry interior block
		{24, 12, 2, 3, 1, []int{1, 2}}, // dry fold partner
	}
	rng := rand.New(rand.NewSource(seed))
	for i := 0; i < n; i++ {
		tc := haloCase{pbx: 1 + rng.Intn(4), pby: 1 + rng.Intn(4), halo: 1 + rng.Intn(2)}
		bni, bnj := tc.halo+rng.Intn(5), tc.halo+rng.Intn(4)
		if tc.pbx*bni%2 != 0 {
			bni++ // the fold needs an even NX
		}
		tc.nx, tc.ny = tc.pbx*bni, tc.pby*bnj
		if rng.Intn(2) == 0 {
			tc.dry = []int{rng.Intn(tc.pbx), rng.Intn(tc.pby)}
		}
		cases = append(cases, tc)
	}
	return cases
}

// TestHaloExchangeMatchesGlobalReference fills every owned cell of the live
// ocean decomposition from one global field, exchanges a scalar and a
// vector field in one batch, and checks every ghost — south boundary, fold,
// periodic wrap and corners — against globalSource. A ghost whose source
// cell lies in a land-eliminated block must read 0.
func TestHaloExchangeMatchesGlobalReference(t *testing.T) {
	for _, tc := range haloCases(37, 40) {
		g, err := NewTripolar(tc.nx, tc.ny, 3)
		if err != nil {
			t.Fatal(err)
		}
		if tc.dry != nil {
			g = tripolarWithDryBlock(t, tc.nx, tc.ny, 3, tc.pbx, tc.pby, tc.dry[0], tc.dry[1])
		}
		bni, bnj := tc.nx/tc.pbx, tc.ny/tc.pby
		loads := blockLoads(g, kmtSums(g), tc.pbx, tc.pby)
		ranks := 0
		for _, l := range loads {
			if l > 0 {
				ranks++
			}
		}
		if ranks == 0 {
			continue // the whole drawn grid is land
		}
		dry := func(i, j int) bool { return loads[(j/bnj)*tc.pbx+i/bni] == 0 }
		const nlev = 2
		value := func(i, j, k int, vec bool) float64 {
			if dry(i, j) {
				return 0
			}
			v := float64(j*tc.nx+i)*1.5 + 3 + 1000*float64(k)
			if vec {
				v = -v
			}
			return v
		}
		name := fmt.Sprintf("%dx%d grid, %dx%d blocks, h%d, dry%v", tc.nx, tc.ny, tc.pbx, tc.pby, tc.halo, tc.dry)
		par.Run(ranks, func(c *par.Comm) {
			d, err := NewTripolarDecompLayout(g, c, tc.pbx, tc.pby, tc.halo)
			if err != nil {
				t.Errorf("%s: %v", name, err)
				return
			}
			n2 := d.LNI() * d.LNJ()
			fields := []HaloField{
				{Data: make([]float64, nlev*n2), NLev: nlev},
				{Data: make([]float64, n2), NLev: 1, Vec: true},
			}
			for _, f := range fields {
				for i := range f.Data {
					f.Data[i] = -999 // sentinel: every ghost must be overwritten
				}
				for k := 0; k < f.NLev; k++ {
					for lj := 0; lj < d.NJ; lj++ {
						for li := 0; li < d.NI; li++ {
							f.Data[k*n2+d.LIdx(li, lj)] = value(d.I0+li, d.J0+lj, k, f.Vec)
						}
					}
				}
			}
			d.ExchangeFields(fields)
			h := d.H
			for _, f := range fields {
				for k := 0; k < f.NLev; k++ {
					for lj := -h; lj < d.NJ+h; lj++ {
						for li := -h; li < d.NI+h; li++ {
							gi, gj := d.I0+li, d.J0+lj
							si, sj := globalSource(g, gi, gj, f.Vec)
							want := value(si, sj, k, f.Vec)
							if got := f.Data[k*n2+(lj+h)*d.LNI()+li+h]; got != want {
								t.Errorf("%s rank %d vec %v level %d: ghost (%d,%d) global (%d,%d) = %v, want %v",
									name, c.Rank(), f.Vec, k, li, lj, gi, gj, got, want)
								return
							}
						}
					}
				}
			}
		})
	}
}

func TestGatherGlobalReassembles(t *testing.T) {
	g, _ := NewTripolar(24, 12, 3)
	par.Run(6, func(c *par.Comm) {
		d, err := NewTripolarDecompLayout(g, c, 3, 2, 1)
		if err != nil {
			t.Error(err)
			return
		}
		f := d.Alloc()
		for lj := 0; lj < d.NJ; lj++ {
			for li := 0; li < d.NI; li++ {
				f[d.LIdx(li, lj)] = float64(d.GIdx(li, lj))
			}
		}
		out := d.GatherGlobal(f)
		if c.Rank() == 0 {
			for idx := range out {
				if out[idx] != float64(idx) {
					t.Errorf("global[%d] = %v", idx, out[idx])
					return
				}
			}
		} else if out != nil {
			t.Error("non-root got data")
		}
	})
}

// pointDepth and pointLand are the bathymetry and land function as one
// formula per point, the way they were written before NewTripolar took
// their longitude and latitude factors once per column and row.
func pointDepth(lon, lat float64) float64 {
	if pointLand(lon, lat) > 0 {
		return 0
	}
	ridge := math.Exp(-squared((math.Mod(lon+math.Pi, 2*math.Pi)-math.Pi)*2)) * 1500
	base := 4200 + 800*math.Cos(3*lon)*math.Cos(2*lat)
	d := base - ridge
	if d < 100 {
		d = 100
	}
	return d
}

func pointLand(lon, lat float64) float64 {
	deg := 180 / math.Pi
	lonD := lon * deg
	latD := lat * deg
	band := func(lonC, halfW, latS, latN float64) float64 {
		if latD < latS || latD > latN {
			return -1
		}
		dl := math.Abs(math.Mod(lonD-lonC+540, 360) - 180)
		wavy := halfW * (1 + 0.25*math.Sin(latD/9) + 0.15*math.Cos(latD/5))
		return wavy - dl
	}
	blob := func(lonC, latC, a, b float64) float64 {
		dl := math.Mod(lonD-lonC+540, 360) - 180
		dla := latD - latC
		return 1 - (dl*dl/(a*a) + dla*dla/(b*b))
	}
	v := -1.0
	if latD < -70 {
		v = 1
	}
	v = math.Max(v, band(280, 14, -55, 75))
	v = math.Max(v, band(45, 30, -35, 75))
	v = math.Max(v, band(105, 18, 5, 72))
	v = math.Max(v, blob(133, -25, 20, 12))
	v = math.Max(v, blob(318, 72, 14, 10))
	return v
}

// The separable land function and bathymetry must agree with the point
// formulas to the bit everywhere, not only on the grids the goldens cover.
func TestSeparableLandMatchesPointFormula(t *testing.T) {
	rng := rand.New(rand.NewSource(36))
	for k := 0; k < 20000; k++ {
		lon, lat := rng.Float64()*2*math.Pi, (rng.Float64()-0.5)*math.Pi
		x, y := basinLonOf(lon), basinLatOf(lat)
		if got, want := landFunction(x.land, y.land), pointLand(lon, lat); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("land function at (%v, %v): %v, point formula %v", lon, lat, got, want)
		}
		if got, want := analyticDepth(x, y), pointDepth(lon, lat); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("depth at (%v, %v): %v, point formula %v", lon, lat, got, want)
		}
	}
}
