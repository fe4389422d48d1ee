package land

import (
	"math"
	"testing"

	"repro/internal/grid"
)

func newLand(t *testing.T) (*Model, *grid.IcosMesh) {
	t.Helper()
	mesh, err := grid.NewIcosMesh(3)
	if err != nil {
		t.Fatal(err)
	}
	m, err := New(mesh, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	return m, mesh
}

func TestLandCellsMatchMask(t *testing.T) {
	m, mesh := newLand(t)
	if len(m.Cells) == 0 {
		t.Fatal("no land cells")
	}
	frac := float64(len(m.Cells)) / float64(mesh.NCells())
	if frac < 0.15 || frac > 0.45 {
		t.Errorf("land fraction %.2f, want ~0.29", frac)
	}
	for _, c := range m.Cells {
		if !grid.IsLand(mesh.LonCell[c], mesh.LatCell[c]) {
			t.Fatalf("cell %d not land", c)
		}
	}
}

func TestValidation(t *testing.T) {
	mesh, _ := grid.NewIcosMesh(1)
	if _, err := New(mesh, Config{}); err == nil {
		t.Error("zero config accepted")
	}
}

func TestStepNonLandCellRejected(t *testing.T) {
	m, mesh := newLand(t)
	// Find an ocean cell.
	for c := 0; c < mesh.NCells(); c++ {
		if !grid.IsLand(mesh.LonCell[c], mesh.LatCell[c]) {
			if _, err := m.StepCell(c, Forcing{}, 600); err == nil {
				t.Error("ocean cell accepted")
			}
			return
		}
	}
}

func sunnyForcing() Forcing {
	return Forcing{
		GSW: 600, GLW: 350, TAir: 290, QAir: 0.008,
		Wind: 5, Precip: 0, PSfc: 1e5,
	}
}

// StepCell steps the column of a land cell, the one StepSlot steps.
func TestStepCellStepsItsSlot(t *testing.T) {
	m, _ := newLand(t)
	slot := len(m.Cells) / 2
	r, err := m.StepCell(m.Cells[slot], sunnyForcing(), 600)
	if err != nil {
		t.Fatal(err)
	}
	ts, w := m.TSoil[slot], m.Bucket[slot]
	ref, _ := newLand(t)
	if got := ref.StepSlot(slot, sunnyForcing(), 600); got != r || ref.TSoil[slot] != ts || ref.Bucket[slot] != w {
		t.Errorf("StepCell: %+v, T %v, bucket %v; StepSlot: %+v, T %v, bucket %v", r, ts, w, got, ref.TSoil[slot], ref.Bucket[slot])
	}
}

func TestStrongSunWarmsSoil(t *testing.T) {
	m, _ := newLand(t)
	t0 := m.TSoil[0]
	for i := 0; i < 48; i++ {
		m.StepSlot(0, sunnyForcing(), 1800)
	}
	if m.TSoil[0] <= t0 {
		t.Errorf("soil did not warm under 600 W/m²: %v -> %v", t0, m.TSoil[0])
	}
	if m.TSoil[0] > 340 {
		t.Errorf("soil runaway: %v", m.TSoil[0])
	}
}

func TestNoSunCoolsSoil(t *testing.T) {
	m, _ := newLand(t)
	f := sunnyForcing()
	f.GSW = 0
	f.GLW = 200
	t0 := m.TSoil[0]
	for i := 0; i < 48; i++ {
		m.StepSlot(0, f, 1800)
	}
	if m.TSoil[0] >= t0 {
		t.Errorf("soil did not cool at night: %v -> %v", t0, m.TSoil[0])
	}
}

func TestEnergyBalanceEquilibrium(t *testing.T) {
	// Under fixed forcing the slab must approach a steady state where
	// absorbed ≈ emitted + turbulent fluxes.
	m, _ := newLand(t)
	f := sunnyForcing()
	for i := 0; i < 5000; i++ {
		m.StepSlot(0, f, 3600)
	}
	r := m.StepSlot(0, f, 3600)
	cfg := m.Cfg
	absorbed := (1-cfg.Albedo)*f.GSW + cfg.Emissivity*f.GLW
	emitted := cfg.Emissivity * 5.670e-8 * math.Pow(r.TSkin, 4)
	residual := absorbed - emitted - r.SHF - r.LHF
	if math.Abs(residual) > 5 {
		t.Errorf("equilibrium residual %v W/m²", residual)
	}
}

func TestBucketHydrology(t *testing.T) {
	m, _ := newLand(t)
	slot := 0
	// Heavy rain fills the bucket to capacity and never past it: the
	// excess spills.
	f := sunnyForcing()
	f.GSW = 0
	f.Precip = 1e-3 // kg/m²/s = 3.6 mm/h
	var full bool
	for i := 0; i < 200; i++ {
		m.StepSlot(slot, f, 3600)
		if m.Bucket[slot] > bucketCap {
			t.Fatalf("step %d: bucket %v past capacity %v", i, m.Bucket[slot], bucketCap)
		}
		full = full || m.Bucket[slot] == bucketCap
	}
	if !full {
		t.Errorf("bucket %v never filled to capacity %v under sustained heavy rain", m.Bucket[slot], bucketCap)
	}
	// Drought: bucket drains, beta limits evaporation.
	f.Precip = 0
	f.GSW = 700
	for i := 0; i < 3000; i++ {
		m.StepSlot(slot, f, 3600)
	}
	if m.Bucket[slot] > bucketCap/4 {
		t.Errorf("bucket did not dry: %v", m.Bucket[slot])
	}
	if m.Bucket[slot] < 0 {
		t.Error("negative bucket")
	}
}

func TestEvaporationRequiresWaterAndWind(t *testing.T) {
	m, _ := newLand(t)
	slot := 0
	m.Bucket[slot] = 0
	r := m.StepSlot(slot, sunnyForcing(), 600)
	if r.Evap != 0 {
		t.Errorf("evaporation %v from empty bucket", r.Evap)
	}
	m.Bucket[slot] = bucketCap
	f := sunnyForcing()
	f.Wind = 0
	r = m.StepSlot(slot, f, 600)
	if r.Evap != 0 {
		t.Errorf("evaporation %v with no wind", r.Evap)
	}
}

func TestDiagnostics(t *testing.T) {
	m, _ := newLand(t)
	if m.MeanSoilTemp() < 230 || m.MeanSoilTemp() > 310 {
		t.Errorf("mean soil T %v", m.MeanSoilTemp())
	}
	if m.TotalWater() <= 0 {
		t.Error("no initial soil water")
	}
}

// Slots partitions the land columns under any cell-ownership predicate: the
// per-owner slot lists are disjoint, ascending, and together cover every
// slot exactly once — including cells adopted after construction, whose
// slots are appended out of cell order, each once.
func TestSlotsPartition(t *testing.T) {
	m, mesh := newLand(t)
	// Adopt a few non-land cells so the slot list is not cell-sorted.
	var extra []int
	for c := 0; c < mesh.NCells() && len(extra) < 5; c++ {
		if !grid.IsLand(mesh.LonCell[c], mesh.LatCell[c]) {
			extra = append(extra, c)
		}
	}
	// A cell already owned, or listed twice, is adopted once.
	n := len(m.Cells)
	m.Adopt(mesh, append(extra, extra[0], m.Cells[0]))
	if got := len(m.Cells) - n; got != len(extra) {
		t.Fatalf("Adopt added %d columns for %d new cells", got, len(extra))
	}

	const owners = 3
	owner := func(cell int) int { return cell % owners }
	seen := make([]int, len(m.Cells))
	for o := 0; o < owners; o++ {
		slots := m.Slots(func(cell int) bool { return owner(cell) == o })
		prev := -1
		for _, s := range slots {
			if s <= prev {
				t.Fatalf("owner %d: slots not strictly ascending at %d", o, s)
			}
			prev = s
			if got := owner(m.Cells[s]); got != o {
				t.Fatalf("slot %d owned by %d, listed under %d", s, got, o)
			}
			seen[s]++
		}
	}
	for s, n := range seen {
		if n != 1 {
			t.Fatalf("slot %d covered %d times, want exactly once", s, n)
		}
	}
}
