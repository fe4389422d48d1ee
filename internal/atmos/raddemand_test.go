package atmos

import (
	"testing"

	"repro/internal/grid"
	"repro/internal/par"
)

// A model nobody has called DemandRadiation on diagnoses every column every
// step; with a demand set, exactly the demanded columns are diagnosed, the
// others hold their last value, and no prognostic notices the difference.
func TestDemandRadiation(t *testing.T) {
	const level, nlev, modelSteps = 2, 6, 6
	all, err := New(level, nlev, DefaultConfig(), nil)
	if err != nil {
		t.Fatal(err)
	}
	dem, err := New(level, nlev, DefaultConfig(), nil)
	if err != nil {
		t.Fatal(err)
	}
	nc := all.Mesh.NCells()
	every := make([]bool, nc)
	nEvery := 0
	for c := 0; c < nc; c += 3 {
		every[c] = true
		nEvery++
	}
	held := make([]float64, nc)
	wantCols := 0
	for step := 0; step < modelSteps; step++ {
		owned := step%3 == 2
		copy(held, dem.GSW)
		all.StepModel()
		dem.DemandRadiation(every, owned)
		dem.StepModel()
		wantCols += nEvery
		if owned {
			wantCols += nc - nEvery
		}
		for c := 0; c < nc; c++ {
			want := all.GSW[c]
			if !every[c] && !owned {
				want = held[c]
			}
			if dem.GSW[c] != want {
				t.Fatalf("step %d cell %d (every=%v owned=%v): GSW = %v, want %v", step, c, every[c], owned, dem.GSW[c], want)
			}
		}
		for i := range all.T {
			if dem.T[i] != all.T[i] || dem.Qv[i] != all.Qv[i] {
				t.Fatalf("step %d: T/Qv[%d] differ under demand", step, i)
			}
		}
		for i := range all.U {
			if dem.U[i] != all.U[i] {
				t.Fatalf("step %d: U[%d] differs under demand", step, i)
			}
		}
	}
	if got := dem.RadiationColumns(); got != wantCols {
		t.Errorf("demand-driven model diagnosed %d columns, want %d", got, wantCols)
	}
	if got, want := all.RadiationColumns(), modelSteps*nc; got != want {
		t.Errorf("model without a demand diagnosed %d columns, want %d", got, want)
	}
}

// Decomposed, the owned flag reaches owned columns only: a halo column
// outside the every-step set is never diagnosed, because nothing on this
// rank reads it.
func TestDemandRadiationSkipsHalo(t *testing.T) {
	const level, nlev = 2, 6
	par.Run(2, func(c *par.Comm) {
		m, err := New(level, nlev, DefaultConfig(), nil)
		if err != nil {
			t.Error(err)
			return
		}
		d, err := grid.NewIcosDecomp(m.Mesh, c)
		if err != nil {
			t.Error(err)
			return
		}
		m.SetDecomp(d)
		every := make([]bool, m.Mesh.NCells())
		every[d.HaloCells[0]] = true
		m.DemandRadiation(every, true)
		m.StepModel()
		for _, cell := range d.Owned {
			if m.GLW[cell] == 0 {
				t.Errorf("rank %d: owned cell %d not diagnosed", c.Rank(), cell)
				return
			}
		}
		for i, h := range d.HaloCells {
			if diagnosed := m.GLW[h] != 0; diagnosed != (i == 0) {
				t.Errorf("rank %d: halo cell %d diagnosed = %v, want %v", c.Rank(), h, diagnosed, i == 0)
				return
			}
		}
		if got, want := m.RadiationColumns(), d.NOwned()+1; got != want {
			t.Errorf("rank %d diagnosed %d columns, want %d", c.Rank(), got, want)
		}
	})
}

// The dynamics, tracer and physics steps work out of the dycore's own
// scratch, per-column stack arrays and recycled column buffers, through row
// bodies bound once: a model step's allocations are the physics step's two
// sweep closures and nothing else (17 572 per step on this mesh before the
// buffers were recycled, 92 while every sweep re-closed its body).
func TestStepModelAllocations(t *testing.T) {
	m := newTestModel(t, 3, 8)
	m.StepModel() // build the lazy scratch and tables
	perStep := testing.AllocsPerRun(5, m.StepModel)
	const measured = 2
	if perStep > measured*1.1 {
		t.Errorf("StepModel allocates %.0f objects per step, want the %d measured", perStep, measured)
	}
	t.Logf("StepModel: %.0f allocations per step", perStep)
}
