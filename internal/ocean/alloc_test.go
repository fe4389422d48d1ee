package ocean

import (
	"testing"

	"repro/internal/grid"
	"repro/internal/par"
	"repro/internal/pp"
)

// Steady-state stepping must not allocate: the scratch buffers and bound
// row kernels built on the first Step absorb every later one.
func TestStepZeroAllocSteadyState(t *testing.T) {
	g, err := grid.NewTripolar(24, 12, 4)
	if err != nil {
		t.Fatal(err)
	}
	par.Run(1, func(c *par.Comm) {
		b, err := grid.NewTripolarDecomp(g, c, 1)
		if err != nil {
			t.Error(err)
			return
		}
		o, err := New(g, b, DefaultConfig(), pp.Serial{})
		if err != nil {
			t.Error(err)
			return
		}
		// Warm steps build the scratch, the kernels, and any lazily grown
		// exchange paths.
		o.Step()
		o.Step()
		allocs := testing.AllocsPerRun(5, func() { o.Step() })
		if allocs != 0 {
			t.Errorf("%.1f allocs per steady-state ocean step, want 0", allocs)
		}
	})
}
