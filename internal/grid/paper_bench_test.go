package grid_test

// The halo-layout ablation (A5):
//
//	go test -run '^$' -bench HaloWidth ./internal/grid

import (
	"fmt"
	"testing"

	"repro/internal/grid"
	"repro/internal/par"
)

// BenchmarkAblationHaloWidth measures the halo-exchange cost of the
// distributed ocean grid across process layouts — the communication the
// §5.2.2 topology rebuild optimizes.
func BenchmarkAblationHaloWidth(b *testing.B) {
	g, _ := grid.NewTripolar(192, 96, 5)
	for _, layout := range [][2]int{{1, 1}, {2, 2}, {4, 2}} {
		b.Run(fmt.Sprintf("ranks-%dx%d", layout[0], layout[1]), func(b *testing.B) {
			par.Run(layout[0]*layout[1], func(c *par.Comm) {
				blk, err := grid.NewTripolarDecompLayout(g, c, layout[0], layout[1], 1)
				if err != nil {
					b.Fatal(err)
				}
				f := blk.Alloc()
				for i := range f {
					f[i] = float64(i)
				}
				if c.Rank() == 0 {
					b.ResetTimer()
				}
				for i := 0; i < b.N; i++ {
					blk.ExchangeCells(f, 1)
				}
			})
		})
	}
}
