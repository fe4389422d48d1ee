package ocean_test

import (
	"math"
	"testing"

	"repro/internal/grid"
	"repro/internal/ocean"
	"repro/internal/par"
	"repro/internal/pp"
)

// BenchmarkStep times one ocean Step of the benchmark's 48×24×10 ocean on
// one rank, Serial, under a steady wind and heat forcing — the number
// bench/run.sh reports as ocean.step_ms, on a steadier footing:
//
//	go test -run '^$' -bench '^BenchmarkStep$' -count 6 -cpu 1 ./internal/ocean
func BenchmarkStep(b *testing.B) {
	g, err := grid.NewTripolar(48, 24, 10)
	if err != nil {
		b.Fatal(err)
	}
	par.Run(1, func(c *par.Comm) {
		blk, err := grid.NewTripolarDecomp(g, c, 1)
		if err != nil {
			b.Fatal(err)
		}
		o, err := ocean.New(g, blk, ocean.DefaultConfig(), pp.Serial{})
		if err != nil {
			b.Fatal(err)
		}
		for i := range o.TauX {
			o.TauX[i] = 0.08 * math.Sin(float64(i))
			o.QHeat[i] = 150 * math.Sin(0.3*float64(i))
		}
		o.Step()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			o.Step()
		}
	})
}
