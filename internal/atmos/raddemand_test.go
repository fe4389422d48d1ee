package atmos

import (
	"testing"

	"repro/internal/par"
)

// A model nobody has called DemandRadiation on diagnoses every column every
// step. With a radiation step set, a held step diagnoses nothing, a marked
// step exactly the masked columns, a radiation step every column; whatever is
// not swept holds its last value, and no prognostic notices the difference.
func TestDemandRadiation(t *testing.T) {
	const level, nlev, modelSteps = 2, 6, 9
	all, err := New(level, nlev, DefaultConfig(), nil)
	if err != nil {
		t.Fatal(err)
	}
	dem, err := New(level, nlev, DefaultConfig(), nil)
	if err != nil {
		t.Fatal(err)
	}
	nc := all.Mesh.NCells()
	mask := make([]bool, nc)
	nMask := 0
	for c := 0; c < nc; c += 3 {
		mask[c] = true
		nMask++
	}
	heldSW, heldLW := make([]float64, nc), make([]float64, nc)
	wantCols := 0
	for step := 0; step < modelSteps; step++ {
		// A cold start's shape: marked first, then hold, hold, radiation step.
		marked, owned := step%4 == 0, step%4 == 3
		copy(heldSW, dem.GSW)
		copy(heldLW, dem.GLW)
		all.StepModel()
		dem.DemandRadiation(mask, marked || owned, owned)
		before := dem.RadiationColumns()
		dem.StepModel()
		switch {
		case owned:
			wantCols += nc
		case marked:
			wantCols += nMask
		}
		if got := dem.RadiationColumns(); got != wantCols {
			t.Fatalf("step %d (marked=%v owned=%v): diagnosed %d columns, want %d", step, marked, owned, got-before, wantCols-before)
		}
		for c := 0; c < nc; c++ {
			wantSW, wantLW := all.GSW[c], all.GLW[c]
			if !owned && !(marked && mask[c]) {
				wantSW, wantLW = heldSW[c], heldLW[c]
			}
			if dem.GSW[c] != wantSW || dem.GLW[c] != wantLW {
				t.Fatalf("step %d cell %d (mask=%v marked=%v owned=%v): GSW/GLW = %v/%v, want %v/%v",
					step, c, mask[c], marked, owned, dem.GSW[c], dem.GLW[c], wantSW, wantLW)
			}
		}
		for i := range all.T {
			if dem.T[i] != all.T[i] || dem.Qv[i] != all.Qv[i] {
				t.Fatalf("step %d: T/Qv[%d] differ under the radiation step", step, i)
			}
		}
		for i := range all.U {
			if dem.U[i] != all.U[i] {
				t.Fatalf("step %d: U[%d] differs under the radiation step", step, i)
			}
		}
	}
	if got, want := all.RadiationColumns(), modelSteps*nc; got != want {
		t.Errorf("model without a radiation step diagnosed %d columns, want %d", got, want)
	}
}

// Decomposed, the owned flag reaches owned columns only: on a radiation step
// a halo column rides along if the mask marks it and is never diagnosed
// otherwise, because nothing on this rank reads it.
func TestDemandRadiationSkipsHalo(t *testing.T) {
	const level, nlev = 2, 6
	par.Run(2, func(c *par.Comm) {
		m, err := patchModel(level, nlev, DefaultConfig(), c)
		if err != nil {
			t.Error(err)
			return
		}
		d := m.Decomp()
		halo := haloCells(d)
		mask := make([]bool, m.Mesh.NCells())
		mask[d.LocalCell(halo[0])] = true
		m.DemandRadiation(mask, true, true)
		m.StepModel()
		for _, cell := range d.Owned {
			if m.GLW[d.LocalCell(cell)] == 0 {
				t.Errorf("rank %d: owned cell %d not diagnosed", c.Rank(), cell)
				return
			}
		}
		for i, h := range halo {
			if diagnosed := m.GLW[d.LocalCell(h)] != 0; diagnosed != (i == 0) {
				t.Errorf("rank %d: halo cell %d diagnosed = %v, want %v", c.Rank(), h, diagnosed, i == 0)
				return
			}
		}
		if got, want := m.RadiationColumns(), d.NOwned()+1; got != want {
			t.Errorf("rank %d diagnosed %d columns, want %d", c.Rank(), got, want)
		}
		m.DemandRadiation(mask, false, false)
		m.StepModel()
		if got, want := m.RadiationColumns(), d.NOwned()+1; got != want {
			t.Errorf("rank %d: a held step diagnosed %d columns", c.Rank(), got-want)
		}
	})
}

// The dynamics, tracer and physics steps work out of the dycore's own
// scratch, per-column stack arrays and recycled column buffers, through row
// bodies bound once: a model step allocates nothing (17 572 allocations per
// step on this mesh before the buffers were recycled, 92 while every sweep
// re-closed its body, 2 while the physics step closed its two).
func TestStepModelAllocations(t *testing.T) {
	m := newTestModel(t, 3, 8)
	m.StepModel() // build the lazy scratch and tables
	perStep := testing.AllocsPerRun(5, m.StepModel)
	const measured = 0
	if perStep > measured*1.1 {
		t.Errorf("StepModel allocates %.0f objects per step, want the %d measured", perStep, measured)
	}
	t.Logf("StepModel: %.0f allocations per step", perStep)
}
