package atmos

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"sync"
	"testing"

	"repro/internal/grid"
	"repro/internal/pp"
	"repro/internal/precision"
)

func newTestModel(t *testing.T, level, nlev int) *Model {
	t.Helper()
	m, err := New(level, nlev, DefaultConfig(), pp.Serial{})
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestNewValidation(t *testing.T) {
	if _, err := New(3, 1, DefaultConfig(), nil); err == nil {
		t.Error("single level accepted")
	}
	if _, err := New(99, 5, DefaultConfig(), nil); err == nil {
		t.Error("bogus level accepted")
	}
	// A rejected configuration shows the value at fault.
	for _, c := range []struct {
		set  func(*Config)
		want string
	}{
		{func(c *Config) { c.DtDycore = 0 }, "must be positive, got 0, 4 and 15"},
		{func(c *Config) { c.DtDycore = math.NaN() }, "must be positive, got NaN, 4 and 15"},
		{func(c *Config) { c.TracerEvery = -4 }, "must be positive, got 120, -4 and 15"},
		{func(c *Config) { c.PhysicsEvery = 0 }, "must be positive, got 120, 4 and 0"},
		// Mixed with no group size used to pass construction and panic in the
		// first physics step's quantization.
		{func(c *Config) { c.Policy, c.PrecGroup = precision.Mixed, 0 }, "PrecGroup values, got 0"},
		{func(c *Config) { c.Policy, c.PrecGroup = precision.Mixed, -8 }, "PrecGroup values, got -8"},
	} {
		bad := DefaultConfig()
		c.set(&bad)
		if _, err := New(2, 5, bad, nil); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("New with a bad configuration: error %v, want one containing %q", err, c.want)
		}
	}
	// The group size is the Mixed policy's alone.
	fp64 := DefaultConfig()
	fp64.PrecGroup = 0
	if _, err := New(2, 5, fp64, nil); err != nil {
		t.Errorf("FP64 model with no group size rejected: %v", err)
	}
}

func TestSigmaLayersPartitionUnity(t *testing.T) {
	m := newTestModel(t, 2, 8)
	var sum float64
	for k := 0; k < m.NLev; k++ {
		if m.DSig[k] <= 0 {
			t.Fatal("non-positive layer")
		}
		if k > 0 && m.Sig[k] <= m.Sig[k-1] {
			t.Fatal("sigma not increasing")
		}
		sum += m.DSig[k]
	}
	if math.Abs(sum-(1-0.05)) > 1e-12 {
		t.Errorf("Δσ sums to %v", sum)
	}
	// Interfaces consistent with layers.
	if math.Abs(m.sigInt(0)-0.05) > 1e-12 || math.Abs(m.sigInt(m.NLev)-1) > 1e-12 {
		t.Error("interface endpoints wrong")
	}
}

func TestInitialStateSane(t *testing.T) {
	m := newTestModel(t, 3, 8)
	nc := m.Mesh.NCells()
	for c := 0; c < nc; c++ {
		if m.Ps[c] != P0 {
			t.Fatal("ps not P0")
		}
		for k := 0; k < m.NLev; k++ {
			tt := m.T[m.Idx(c, k)]
			if tt < 150 || tt > 340 {
				t.Fatalf("T = %v", tt)
			}
			q := m.Qv[m.Idx(c, k)]
			if q < 0 || q > 0.05 {
				t.Fatalf("q = %v", q)
			}
		}
	}
}

// The velocity reconstruction must recover a constant tangent field: set
// u_e = W·n̂_e for a fixed vector W and check the cell vectors.
func TestReconstructionExactForUniformField(t *testing.T) {
	m := newTestModel(t, 3, 2)
	mesh := m.Mesh
	w := grid.Vec3{X: 3, Y: -2, Z: 1}
	ne := mesh.NEdges()
	u := make([]float64, ne)
	for e := 0; e < ne; e++ {
		// Project W onto the local tangent plane first: a constant 3-vector
		// is not tangent everywhere, so test against its tangent projection.
		u[e] = w.Dot(m.recon.normal3[e])
	}
	for c := 0; c < mesh.NCells(); c++ {
		got := m.recon.CellVector(u, 1, 0, c)
		p := mesh.CellCenter[c]
		want := w.Sub(p.Scale(w.Dot(p)))
		if got.Sub(want).Norm() > 0.15*want.Norm()+1e-9 {
			t.Fatalf("cell %d: reconstructed %v, want %v", c, got, want)
		}
	}
}

func TestReconstructionZonalFlow(t *testing.T) {
	m := newTestModel(t, 3, 2)
	mesh := m.Mesh
	ne := mesh.NEdges()
	u := make([]float64, ne)
	// Solid-body zonal flow: velocity = Ω×r with Ω = ẑ; normal component
	// at each edge.
	for e := 0; e < ne; e++ {
		mid := mesh.EdgeMidpoint[e]
		vel := grid.Vec3{X: -mid.Y, Y: mid.X, Z: 0}
		u[e] = vel.Dot(m.recon.normal3[e])
	}
	for c := 0; c < mesh.NCells(); c++ {
		lat := mesh.LatCell[c]
		if math.Abs(lat) > 1.2 {
			continue // skip near-pole cells where cos(lat) is small
		}
		uz, vm := m.recon.CellUV(u, 1, 0, c)
		want := math.Cos(lat) // |Ω×r| along east
		if math.Abs(uz-want) > 0.12*want+0.02 {
			t.Fatalf("cell %d: zonal %v, want %v", c, uz, want)
		}
		if math.Abs(vm) > 0.08 {
			t.Fatalf("cell %d: meridional %v, want ~0", c, vm)
		}
	}
}

// WindSpeedBound × max|U| bounds MaxWindLocal for any edge field: random
// ones, and for every cell the field that pushes that cell's reconstructed
// speed hardest (each of its edges at ±1 along its weight's eastward
// component).
func TestWindSpeedBound(t *testing.T) {
	m := newTestModel(t, 3, 2)
	mesh := m.Mesh
	bound := m.WindSpeedBound()
	check := func(name string) {
		t.Helper()
		maxU := 0.0
		for _, v := range m.U {
			maxU = math.Max(maxU, math.Abs(v))
		}
		if w := m.MaxWindLocal(); w > bound*maxU {
			t.Fatalf("%s: max wind %v exceeds the bound %v × max|U| %v", name, w, bound, maxU)
		}
	}
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 20; trial++ {
		scale := math.Pow(10, float64(rng.Intn(8)-2))
		for i := range m.U {
			m.U[i] = scale * (2*rng.Float64() - 1)
		}
		check(fmt.Sprintf("random field %d", trial))
	}
	for c := 0; c < mesh.NCells(); c++ {
		clear(m.U)
		lo, hi := mesh.Slots(c)
		for slot := lo; slot < hi; slot++ {
			s := 1.0
			if m.recon.weight(slot).Dot(m.recon.east[c]) < 0 {
				s = -1
			}
			for k := 0; k < m.NLev; k++ {
				m.U[m.Idx(int(mesh.SlotEdge[slot]), k)] = 250 * s
			}
		}
		check(fmt.Sprintf("field aimed at cell %d", c))
	}
}

func TestMassConservationExact(t *testing.T) {
	m := newTestModel(t, 3, 6)
	// Perturb to create motion.
	m.Ps[10] += 500
	m.Ps[200] -= 500
	m0 := m.TotalMass()
	for s := 0; s < 20; s++ {
		m.Step()
	}
	m1 := m.TotalMass()
	if rel := math.Abs(m1-m0) / m0; rel > 1e-13 {
		t.Errorf("mass drift %.3e", rel)
	}
}

// Between physics calls, transport must conserve mass-weighted moisture
// exactly (physics adds evaporation/precipitation).
func TestMoistureConservationByTransport(t *testing.T) {
	cfg := DefaultConfig()
	cfg.PhysicsEvery = 1 << 30 // physics never fires
	m, err := New(3, 6, cfg, pp.Serial{})
	if err != nil {
		t.Fatal(err)
	}
	m.Ps[5] += 300
	m.Ps[100] -= 300
	q0 := m.TotalMoisture()
	for s := 0; s < 8; s++ {
		m.Step()
	}
	q1 := m.TotalMoisture()
	if rel := math.Abs(q1-q0) / q0; rel > 1e-12 {
		t.Errorf("moisture drift %.3e under pure transport", rel)
	}
}

func TestRestStateStaysBalanced(t *testing.T) {
	// With no physics and horizontally uniform T(σ) and ps, the pressure
	// gradient terms vanish: the state is an exact steady solution.
	cfg := DefaultConfig()
	cfg.PhysicsEvery = 1 << 30
	m, err := New(3, 5, cfg, pp.Serial{})
	if err != nil {
		t.Fatal(err)
	}
	for i := range m.T {
		m.T[i] = 260 // isothermal
		m.Qv[i] = 0.001
	}
	for s := 0; s < 10; s++ {
		m.Step()
	}
	if w := m.MaxWind(); w > 1e-10 {
		t.Errorf("rest state developed wind %v", w)
	}
}

func TestStabilityWithPhysics(t *testing.T) {
	m := newTestModel(t, 3, 8)
	steps := 3 * m.Cfg.PhysicsEvery
	for s := 0; s < steps; s++ {
		m.Step()
	}
	if w := m.MaxWind(); math.IsNaN(w) || w > 150 {
		t.Fatalf("max wind %v after %d substeps", w, steps)
	}
	for c := 0; c < m.Mesh.NCells(); c++ {
		if math.IsNaN(m.Ps[c]) || m.Ps[c] < 8e4 || m.Ps[c] > 1.15e5 {
			t.Fatalf("ps[%d] = %v", c, m.Ps[c])
		}
	}
}

func TestPhysicsDrivesCirculation(t *testing.T) {
	m := newTestModel(t, 3, 8)
	// Radiative relaxation toward the equator-pole gradient must spin up
	// winds from rest.
	for s := 0; s < 5*m.Cfg.PhysicsEvery; s++ {
		m.Step()
	}
	if w := m.MaxWind(); w < 0.01 {
		t.Errorf("no circulation developed: max wind %v", w)
	}
}

func TestEvaporationAndPrecipitation(t *testing.T) {
	m := newTestModel(t, 3, 8)
	q0 := m.TotalMoisture()
	for s := 0; s < 10*m.Cfg.PhysicsEvery; s++ {
		m.Step()
	}
	// Ocean evaporation must have changed total moisture (in either
	// direction once rain balances), and some precipitation must occur
	// somewhere after saturation.
	q1 := m.TotalMoisture()
	if q0 == q1 {
		t.Error("moisture never changed — surface hydrology inert")
	}
	var anyPrecip bool
	for _, p := range m.Precip {
		if p > 0 {
			anyPrecip = true
			break
		}
	}
	if !anyPrecip {
		t.Log("no precipitation after short spin-up (acceptable on coarse mesh)")
	}
}

func TestPhysicsSuiteContract(t *testing.T) {
	m := newTestModel(t, 2, 6)
	s := NewConventionalSuite(m)
	if s.Name() != "conventional" {
		t.Error(s.Name())
	}
	nlev := m.NLev
	in := ColumnIn{
		U: make([]float64, nlev), V: make([]float64, nlev),
		T: make([]float64, nlev), Q: make([]float64, nlev),
		P:   make([]float64, nlev),
		Lat: 0.2, TSkin: 300, CosZ: 0.8,
	}
	for k := 0; k < nlev; k++ {
		logP, powP := eqLevel(m.Sig[k])
		in.T[k] = eqT(sinSq(0.2), cosSq(0.2), logP, powP)
		in.P[k] = m.Sig[k] * P0
		in.Q[k] = 0.001
	}
	in.U[nlev-1] = 10
	out := ColumnOut{
		DT: make([]float64, nlev), DQ: make([]float64, nlev),
		DU: make([]float64, nlev), DV: make([]float64, nlev),
	}
	s.Column(in, 600, &out)
	// At radiative equilibrium with a warm sea surface: positive sensible
	// and latent fluxes, eastward surface stress, sunlight at the surface.
	if out.TauX <= 0 {
		t.Errorf("TauX = %v with eastward surface wind", out.TauX)
	}
	if out.LHF <= 0 {
		t.Errorf("LHF = %v over warm ocean", out.LHF)
	}
	if out.GSW <= 0 || out.GSW > 1361 {
		t.Errorf("GSW = %v", out.GSW)
	}
	if out.GLW <= 100 || out.GLW > 600 {
		t.Errorf("GLW = %v", out.GLW)
	}
	// Friction decelerates the surface wind.
	if out.DU[nlev-1] >= 0 {
		t.Errorf("DU = %v with positive wind", out.DU[nlev-1])
	}
}

// The suite's tables are published lock-free: columns racing through a fresh
// suite's first use (run under -race) all read one consistent snapshot and
// agree with a suite that built its tables alone, and a changed g-point
// count is picked up by the next column, not served from the stale snapshot.
func TestSuiteTablesConcurrentFirstUse(t *testing.T) {
	m := newTestModel(t, 2, 6)
	nlev := m.NLev
	column := func(s *ConventionalSuite) (gsw, glw, dt0 float64) {
		in := ColumnIn{
			U: make([]float64, nlev), V: make([]float64, nlev),
			T: make([]float64, nlev), Q: make([]float64, nlev),
			P:   make([]float64, nlev),
			Lat: 0.2, TSkin: 300, CosZ: 0.8,
		}
		for k := 0; k < nlev; k++ {
			in.T[k], in.P[k], in.Q[k] = 250+5*float64(k), m.Sig[k]*P0, 0.002
		}
		out := ColumnOut{
			DT: make([]float64, nlev), DQ: make([]float64, nlev),
			DU: make([]float64, nlev), DV: make([]float64, nlev),
		}
		s.Column(in, 600, &out)
		return out.GSW, out.GLW, out.DT[0]
	}
	alone := NewConventionalSuite(m)
	wantSW, wantLW, wantDT := column(alone)

	shared := NewConventionalSuite(m)
	const workers = 8
	var wg sync.WaitGroup
	got := make([][3]float64, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				got[w][0], got[w][1], got[w][2] = column(shared)
			}
		}(w)
	}
	wg.Wait()
	for w := range got {
		if got[w] != [3]float64{wantSW, wantLW, wantDT} {
			t.Errorf("worker %d: GSW/GLW/DT = %v, a suite used alone gives %v", w, got[w], [3]float64{wantSW, wantLW, wantDT})
		}
	}

	before := shared.tab.Load()
	shared.LWGPoints, alone.LWGPoints = 70, 70
	sharedSW, sharedLW, _ := column(shared)
	if shared.tab.Load() == before || len(shared.tab.Load().lwK) != 70 {
		t.Error("changing LWGPoints did not rebuild the tables")
	}
	if sw, lw, _ := column(alone); sw != sharedSW || lw != sharedLW || lw == wantLW {
		t.Errorf("after LWGPoints = 70: GSW/GLW %v/%v vs %v/%v (140 g-points gave GLW %v)", sharedSW, sharedLW, sw, lw, wantLW)
	}
	same := shared.tab.Load()
	column(shared)
	if shared.tab.Load() != same {
		t.Error("an unchanged suite rebuilt its tables")
	}
}

func TestSupersaturationRainsOut(t *testing.T) {
	m := newTestModel(t, 2, 6)
	s := NewConventionalSuite(m)
	nlev := m.NLev
	in := ColumnIn{
		U: make([]float64, nlev), V: make([]float64, nlev),
		T: make([]float64, nlev), Q: make([]float64, nlev),
		P:   make([]float64, nlev),
		Lat: 0, TSkin: 300, Land: true,
	}
	for k := 0; k < nlev; k++ {
		in.T[k] = 290
		in.P[k] = m.Sig[k] * P0
		in.Q[k] = qsat(290, in.P[k]) * 1.5 // strongly supersaturated
	}
	out := ColumnOut{
		DT: make([]float64, nlev), DQ: make([]float64, nlev),
		DU: make([]float64, nlev), DV: make([]float64, nlev),
	}
	s.Column(in, 600, &out)
	if out.Precip <= 0 {
		t.Fatal("no rain from supersaturated column")
	}
	for k := 0; k < nlev; k++ {
		if out.DQ[k] >= 0 {
			t.Fatalf("level %d: moisture not removed", k)
		}
		if out.DT[k] <= -1e-3 {
			t.Fatalf("level %d: no latent heating (DT=%v)", k, out.DT[k])
		}
	}
	// Land column: no evaporation.
	if out.LHF != 0 {
		t.Errorf("land LHF = %v", out.LHF)
	}
}

func TestMixedPrecisionAtmosWithinThreshold(t *testing.T) {
	run := func(pol precision.Policy) *Model {
		cfg := DefaultConfig()
		cfg.Policy = pol
		m, err := New(3, 6, cfg, pp.Serial{})
		if err != nil {
			t.Fatal(err)
		}
		for s := 0; s < 4*m.Cfg.PhysicsEvery; s++ {
			m.Step()
		}
		return m
	}
	m64 := run(precision.FP64)
	m32 := run(precision.Mixed)
	relPs, err := precision.RelL2(m32.Ps, m64.Ps)
	if err != nil {
		t.Fatal(err)
	}
	v64 := m64.SurfaceVorticity()
	v32 := m32.SurfaceVorticity()
	// Vorticity can be near zero globally; compare against its own scale.
	var scale float64
	for _, v := range v64 {
		scale += v * v
	}
	th := precision.PaperThresholds()
	if relPs > th.AtmosRelL2 {
		t.Errorf("surface pressure rel L2 %.4g over threshold %.2g", relPs, th.AtmosRelL2)
	}
	if scale > 0 {
		relV, _ := precision.RelL2(v32, v64)
		if relV > th.AtmosRelL2 {
			t.Errorf("vorticity rel L2 %.4g over threshold", relV)
		}
	}
	// The runs must actually differ.
	same := true
	for i := range m64.Ps {
		if m64.Ps[i] != m32.Ps[i] {
			same = false
			break
		}
	}
	if same {
		t.Error("mixed run identical to FP64")
	}
}

func TestBackendEquivalence(t *testing.T) {
	run := func(sp pp.Space) []float64 {
		m, err := New(2, 5, DefaultConfig(), sp)
		if err != nil {
			t.Fatal(err)
		}
		for s := 0; s < m.Cfg.PhysicsEvery+3; s++ {
			m.Step()
		}
		return m.Ps
	}
	ref := run(pp.Serial{})
	for _, sp := range []pp.Space{pp.NewHost(4), pp.NewCPE(8)} {
		got := run(sp)
		for i := range ref {
			if got[i] != ref[i] {
				t.Fatalf("%s: ps[%d] = %v vs %v", sp.Name(), i, got[i], ref[i])
			}
		}
	}
}

func TestDiagnosticsShapes(t *testing.T) {
	m := newTestModel(t, 2, 5)
	for s := 0; s < m.Cfg.PhysicsEvery; s++ {
		m.Step()
	}
	nc := m.Mesh.NCells()
	u, v := m.Wind10m()
	if len(u) != nc || len(v) != nc {
		t.Fatal("wind10m size")
	}
	if len(m.SurfaceVorticity()) != nc {
		t.Fatal("vorticity size")
	}
	cloud := m.TotalCloudProxy()
	for _, cf := range cloud {
		if cf < 0 || cf > 1 {
			t.Fatal("cloud proxy out of [0,1]")
		}
	}
	ps, at := m.MinPs()
	if at < 0 || ps <= 0 {
		t.Fatal("MinPs")
	}
	if m.GlobalPrecipRate() < 0 {
		t.Fatal("negative precip")
	}
	if m.DtModel() != m.Cfg.DtDycore*float64(m.Cfg.PhysicsEvery) {
		t.Fatal("DtModel")
	}
}

func TestQsatMonotonicity(t *testing.T) {
	// qsat grows with temperature and falls with pressure.
	if !(qsat(300, 1e5) > qsat(280, 1e5)) {
		t.Error("qsat not increasing in T")
	}
	if !(qsat(300, 8e4) > qsat(300, 1e5)) {
		t.Error("qsat not decreasing in p")
	}
	if q := qsat(400, 1e5); q > 0.08+1e-12 {
		t.Error("qsat cap missing")
	}
}
