package core

// What assembling the coupled model costs on each rung of the ladder, in
// time and in live heap, and how much of the time is the regridder:
//
//	go test -run '^$' -bench 'Assemble|NewRegridder' ./internal/core

import (
	"fmt"
	"runtime"
	"testing"

	"repro/internal/grid"
	"repro/internal/par"
	"repro/internal/pp"
)

// BenchmarkAssemble times NewWithOptions in the benchmark's model options
// (serial space, conservative remap, audit on) on 1, 2, 4 and 8 ranks: every
// grid, decomposition, regridder and initial state, no step. Once the timing
// is done it assembles one more model on every rank, steps it once, and
// reports the live heap the ranks' models hold per owned atmosphere cell
// (B/cell: the heap of a rank over the cells it owns, which the ranks split
// evenly, is the heap of all ranks over the global cell count) — the
// ladder's memory column, one row per rank count (make footprint). A rank
// that held the whole globe would show r2 ≈ 2 × r1; one that holds its
// patch shows r2 falling toward r1 × ext/owned.
func BenchmarkAssemble(b *testing.B) {
	for _, cfg := range Configurations() {
		for _, ranks := range []int{1, 2, 4, 8} {
			b.Run(fmt.Sprintf("%s/r%d", cfg.Label, ranks), func(b *testing.B) {
				nc, _, _ := grid.IcosCounts(cfg.AtmLevel)
				par.Run(ranks, func(c *par.Comm) {
					assemble := func() (*ESM, error) {
						return NewWithOptions(cfg, c, WithSpace(pp.Serial{}),
							WithRemap(RemapCons), WithAudit(true))
					}
					for i := 0; i < b.N; i++ {
						if _, err := assemble(); err != nil {
							b.Error(err) // on the rank goroutine: no Fatal
							return
						}
					}
					// The benchmark's clock and counters are rank 0's alone;
					// every rank's model is live while it reads the heap.
					c.Barrier()
					var base int64
					if c.Rank() == 0 {
						b.StopTimer()
						base = liveHeap()
					}
					c.Barrier()
					e, err := assemble()
					if err != nil {
						b.Error(err)
						return
					}
					e.Step()
					c.Barrier()
					if c.Rank() == 0 {
						b.ReportMetric(float64(liveHeap()-base)/float64(nc), "B/cell")
					}
					c.Barrier()
					runtime.KeepAlive(e)
				})
			})
		}
	}
}

// liveHeap collects garbage and returns the bytes still allocated.
func liveHeap() int64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return int64(ms.HeapAlloc)
}

// regridSink keeps BenchmarkNewRegridder's result live.
var regridSink *Regridder

// BenchmarkNewRegridder times the remap maps alone over grids built once.
func BenchmarkNewRegridder(b *testing.B) {
	for _, cfg := range Configurations() {
		b.Run(cfg.Label, func(b *testing.B) {
			mesh, err := grid.NewIcosMesh(cfg.AtmLevel)
			if err != nil {
				b.Fatal(err)
			}
			g, err := grid.NewTripolar(cfg.OcnNX, cfg.OcnNY, cfg.OcnNLev)
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				regridSink = NewRegridder(mesh, g)
			}
		})
	}
}
