package typhoon

import (
	"math"
	"testing"
	"time"

	"repro/internal/atmos"
	"repro/internal/grid"
	"repro/internal/par"
	"repro/internal/pp"
)

func newModel(t *testing.T, level int) *atmos.Model {
	t.Helper()
	m, err := atmos.New(level, 8, atmos.DefaultConfig(), pp.Serial{})
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestBestTrackShape(t *testing.T) {
	bt := BestTrackDoksuri()
	if len(bt) != 8 {
		t.Fatalf("%d points", len(bt))
	}
	for i := 1; i < len(bt); i++ {
		// Doksuri moved west-northwest: longitude decreasing, latitude
		// increasing, time strictly forward.
		if !bt[i].Time.After(bt[i-1].Time) {
			t.Fatal("time not increasing")
		}
		if bt[i].LonDeg >= bt[i-1].LonDeg {
			t.Fatal("longitude not decreasing (WNW motion)")
		}
		if bt[i].LatDeg <= bt[i-1].LatDeg {
			t.Fatal("latitude not increasing")
		}
	}
	// Peak intensity near the Luzon Strait (55 m/s super typhoon).
	var peak float64
	for _, p := range bt {
		if p.WindMS > peak {
			peak = p.WindMS
		}
	}
	if peak < 51 {
		t.Errorf("peak wind %v, want super-typhoon strength", peak)
	}
}

func TestSeedValidation(t *testing.T) {
	m := newModel(t, 2)
	if err := Seed(m, SeedConfig{DeltaPs: -1, RadiusKm: 100}); err == nil {
		t.Error("negative deficit accepted")
	}
	if err := Seed(m, SeedConfig{DeltaPs: 100, RadiusKm: 0}); err == nil {
		t.Error("zero radius accepted")
	}
}

func TestSeedCreatesDepressionAndCyclone(t *testing.T) {
	m := newModel(t, 4)
	cfg := DoksuriSeed()
	if err := Seed(m, cfg); err != nil {
		t.Fatal(err)
	}
	fix, err := FindCenter(m, time.Now(), 800)
	if err != nil {
		t.Fatal(err)
	}
	// Center near the seed position.
	if d := GreatCircleKm(fix.LonDeg, fix.LatDeg, cfg.LonDeg, cfg.LatDeg); d > 600 {
		t.Errorf("center %v km from seed", d)
	}
	if fix.PressPa >= atmos.P0-cfg.DeltaPs/3 {
		t.Errorf("central pressure %v, deficit too shallow", fix.PressPa)
	}
	if fix.WindMS < 5 {
		t.Errorf("max wind %v too weak", fix.WindMS)
	}
	// Cyclonic (positive NH) vorticity at the center region.
	vort := m.SurfaceVorticity()
	_, c := m.MinPs()
	if vort[c] <= 0 {
		t.Errorf("vorticity at center %v, want cyclonic (>0)", vort[c])
	}
}

// A decomposed model holds only its patch, whose boundary edges lack a
// cell: seeding it must give every patch edge and cell the whole model's
// values.
func TestSeedOnDecomposedModel(t *testing.T) {
	whole := newModel(t, 3)
	cfg := DoksuriSeed()
	if err := Seed(whole, cfg); err != nil {
		t.Fatal(err)
	}
	par.Run(3, func(c *par.Comm) {
		mesh, err := grid.NewIcosMesh(3)
		if err != nil {
			t.Error(err)
			return
		}
		d, err := grid.NewPatchDecomp(mesh, grid.IcosOwners(mesh, c.Size()), c)
		if err != nil {
			t.Error(err)
			return
		}
		m, err := atmos.NewPatch(mesh, d, 8, atmos.DefaultConfig(), pp.Serial{})
		if err != nil {
			t.Error(err)
			return
		}
		if err := Seed(m, cfg); err != nil {
			t.Error(err)
			return
		}
		for i, g := range m.Mesh.GlobalEdge {
			for k := 0; k < m.NLev; k++ {
				if got, want := m.U[m.Idx(i, k)], whole.U[whole.Idx(int(g), k)]; got != want {
					t.Errorf("rank %d: edge %d level %d: U %v, want %v", c.Rank(), g, k, got, want)
					return
				}
			}
		}
		for i, g := range m.Mesh.GlobalCell {
			if m.Ps[i] != whole.Ps[g] {
				t.Errorf("rank %d: cell %d: Ps %v, want %v", c.Rank(), g, m.Ps[i], whole.Ps[g])
				return
			}
		}
	})
}

func TestSeededVortexSurvivesIntegration(t *testing.T) {
	m := newModel(t, 4)
	if err := Seed(m, DoksuriSeed()); err != nil {
		t.Fatal(err)
	}
	start := time.Date(2023, 7, 21, 0, 0, 0, 0, time.UTC)
	var fixes []Fix
	for h := 0; h < 4; h++ {
		m.StepModel()
		fix, err := FindCenter(m, start.Add(time.Duration(h)*time.Hour), 800)
		if err != nil {
			t.Fatal(err)
		}
		fixes = append(fixes, fix)
		if math.IsNaN(fix.PressPa) {
			t.Fatal("NaN pressure")
		}
	}
	// The depression persists (weaker than seeded is fine; gone is not).
	last := fixes[len(fixes)-1]
	if last.PressPa > atmos.P0-100 {
		t.Errorf("vortex dissipated: centre pressure %v", last.PressPa)
	}
}

func TestTrackErrorComputation(t *testing.T) {
	best := BestTrackDoksuri()
	// A simulated track identical to the best track has zero error.
	var sim []Fix
	for _, p := range best {
		sim = append(sim, Fix{Time: p.Time, LonDeg: p.LonDeg, LatDeg: p.LatDeg})
	}
	e, err := TrackError(sim, best)
	if err != nil {
		t.Fatal(err)
	}
	if e != 0 {
		t.Errorf("identical track error %v", e)
	}
	// One degree of longitude at ~15°N is ≈ 107 km.
	sim[0].LonDeg += 1
	e, _ = TrackError(sim, best)
	want := 107.0 / float64(len(sim))
	if math.Abs(e-want) > 3 {
		t.Errorf("error %v, want ≈ %v", e, want)
	}
	// No matching times.
	far := []Fix{{Time: best[0].Time.Add(1000 * time.Hour)}}
	if _, err := TrackError(far, best); err == nil {
		t.Error("unmatched track accepted")
	}
	if _, err := TrackError(nil, best); err == nil {
		t.Error("empty track accepted")
	}
}

// Resolution contrast (Fig 6): the same vortex seeded on a finer mesh must
// produce a more compact eye and richer fine-scale structure.
func TestResolutionContrast(t *testing.T) {
	seed := DoksuriSeed()
	measure := func(level int) (rmw, fsv float64) {
		m := newModel(t, level)
		if err := Seed(m, seed); err != nil {
			t.Fatal(err)
		}
		m.StepModel()
		fix, err := FindCenter(m, time.Now(), 900)
		if err != nil {
			t.Fatal(err)
		}
		u, v := m.Wind10m()
		speed := make([]float64, len(u))
		for i := range u {
			speed[i] = math.Hypot(u[i], v[i])
		}
		return RadiusOfMaxWind(m, fix, 900), FineScaleVariance(m.Mesh, speed)
	}
	rmwCoarse, fsvCoarse := measure(4) // "25 km class"
	rmwFine, fsvFine := measure(5)     // "3 km class" stand-in (one level finer)
	if rmwFine <= 0 || rmwCoarse <= 0 {
		t.Fatalf("rmw = %v / %v", rmwCoarse, rmwFine)
	}
	if rmwFine >= rmwCoarse {
		t.Errorf("finer mesh eye not more compact: %v km vs %v km", rmwFine, rmwCoarse)
	}
	if fsvFine <= 0 || fsvCoarse <= 0 {
		t.Fatalf("fine-scale variance = %v / %v", fsvCoarse, fsvFine)
	}
}

func TestFineScaleVarianceProperties(t *testing.T) {
	m := newModel(t, 3)
	mesh := m.Mesh
	// Constant field: zero variance ratio.
	flat := make([]float64, mesh.NCells())
	for i := range flat {
		flat[i] = 5
	}
	if FineScaleVariance(mesh, flat) != 0 {
		t.Error("constant field has structure")
	}
	// Checkerboard-like noise has much more fine-scale variance than a
	// smooth large-scale field.
	smooth := make([]float64, mesh.NCells())
	noisy := make([]float64, mesh.NCells())
	for c := range smooth {
		smooth[c] = math.Sin(mesh.LonCell[c]) * math.Cos(mesh.LatCell[c])
		noisy[c] = float64((c%2)*2 - 1)
	}
	if FineScaleVariance(mesh, noisy) <= FineScaleVariance(mesh, smooth) {
		t.Error("noise not detected as fine-scale structure")
	}
	// Wrong length: graceful zero.
	if FineScaleVariance(mesh, flat[:3]) != 0 {
		t.Error("bad length not handled")
	}
}

func TestGreatCircleKm(t *testing.T) {
	// One degree of latitude ≈ 111 km.
	if d := GreatCircleKm(120, 20, 120, 21); math.Abs(d-111.2) > 1 {
		t.Errorf("1° lat = %v km", d)
	}
	if d := GreatCircleKm(0, 0, 180, 0); math.Abs(d-20015) > 30 {
		t.Errorf("antipodal = %v km", d)
	}
}
