package ocean

import (
	"fmt"
	"testing"

	"repro/internal/grid"
	"repro/internal/par"
	"repro/internal/pp"
)

// Steady-state stepping must not allocate: the scratch buffers and bound
// row kernels built on the first Step absorb every later one. On a 2×2
// block layout rank 0 measures while its peers step the same number of
// times, so the batched halo exchanges are pinned as well.
func TestStepZeroAllocSteadyState(t *testing.T) {
	g, err := grid.NewTripolar(24, 12, 4)
	if err != nil {
		t.Fatal(err)
	}
	const runs = 5
	for _, layout := range [][2]int{{1, 1}, {2, 2}} {
		px, py := layout[0], layout[1]
		t.Run(fmt.Sprintf("%dx%d", px, py), func(t *testing.T) {
			par.Run(px*py, func(c *par.Comm) {
				b, err := grid.NewTripolarDecompLayout(g, c, px, py, 1)
				if err != nil {
					t.Error(err)
					return
				}
				o, err := New(g, b, DefaultConfig(), pp.Serial{})
				if err != nil {
					t.Error(err)
					return
				}
				// Warm steps build the scratch, the kernels, and any lazily
				// grown exchange paths.
				o.Step()
				o.Step()
				c.Barrier()
				if c.Rank() == 0 {
					if allocs := testing.AllocsPerRun(runs, o.Step); allocs != 0 {
						t.Errorf("%.1f allocs per steady-state ocean step, want 0", allocs)
					}
				} else {
					// AllocsPerRun calls its function once more to warm up.
					for i := 0; i < runs+1; i++ {
						o.Step()
					}
				}
				c.Barrier()
			})
		})
	}
}
