package atmos

import (
	"testing"

	"repro/internal/pp"
)

// twinOf builds a fresh model holding m's state — prognostics, surface
// boundary conditions, substep counter and flux accumulators — and none of
// its dycore scratch, so the twin's first substep integrates tv/φ from that
// state.
func twinOf(t *testing.T, m *Model, level int) *Model {
	t.Helper()
	tw, err := New(level, m.NLev, m.Cfg, m.Sp)
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range [][2][]float64{
		{tw.Ps, m.Ps}, {tw.T, m.T}, {tw.Qv, m.Qv}, {tw.U, m.U}, {tw.SST, m.SST}, {tw.IceFrac, m.IceFrac},
	} {
		copy(f[0], f[1])
	}
	edge, dps := m.FluxAccumulators()
	if err := tw.RestoreState(m.Steps(), edge, dps); err != nil {
		t.Fatal(err)
	}
	return tw
}

// TestHydrostaticRecomputedAfterExternalWrite pins the reuse of the
// hydrostatic integral: tv/φ are carried from substep to substep and retaken
// only after a tracer or physics step or on entry through Step/StepModel. A
// write to T or Qv through the exported fields between two calls must reach
// the next substep exactly as it reaches a twin built from the written state,
// and a model step spanning a physics step must match a twin driven substep
// by substep through Step, which retakes the integral every time. A model
// step takes at most five integrals at the default 4/15 cadence (it took 15
// before the reuse).
func TestHydrostaticRecomputedAfterExternalWrite(t *testing.T) {
	const level, nlev = 2, 8
	m, _, err := modelPair(level, nlev, pp.Serial{}, 1)
	if err != nil {
		t.Fatal(err)
	}
	compare := func(what string, tw *Model) {
		t.Helper()
		sameBits(t, what+": Ps", m.Ps, tw.Ps, nil, 1)
		sameBits(t, what+": T", m.T, tw.T, nil, 1)
		sameBits(t, what+": Qv", m.Qv, tw.Qv, nil, 1)
		sameBits(t, what+": U", m.U, tw.U, nil, 1)
		sameBits(t, what+": flux.edge", m.flux.edge, tw.flux.edge, nil, 1)
	}
	writes := []struct {
		name  string
		field func(m *Model) []float64
	}{
		{"T", func(m *Model) []float64 { return m.T }},
		{"Qv", func(m *Model) []float64 { return m.Qv }},
	}
	write := func(f []float64) {
		for i := 0; i < len(f); i += 7 {
			f[i] *= 1.01
		}
	}

	m.Step() // the first substep takes the integral; the write below makes it stale
	for _, w := range writes {
		write(w.field(m))
		tw := twinOf(t, m, level)
		m.Step()
		tw.Step()
		compare("Step after a "+w.name+" write", tw)
	}

	// The model is three substeps into its cycle, so each model step below
	// spans a physics step (substep 15) with four substeps after it.
	for _, w := range writes {
		m.StepModel()
		write(w.field(m))
		tw := twinOf(t, m, level)
		m.StepModel()
		for i := 0; i < tw.Cfg.PhysicsEvery; i++ {
			tw.Step()
		}
		compare("StepModel after a "+w.name+" write", tw)
	}

	// Stepped the way the coupler steps it — whole model steps from the
	// start, so the physics step is the last substep — a model step takes
	// the entry integral plus one after each tracer step that is not its last
	// substep: four or five, against fifteen.
	m, _, err = modelPair(level, nlev, pp.Serial{}, 1)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		before := m.hydroSweeps
		m.StepModel()
		if n := m.hydroSweeps - before; n < 4 || n > 5 {
			t.Errorf("model step %d took %d hydrostatic integrals, want 4 or 5", i, n)
		}
	}
}
