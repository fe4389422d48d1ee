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
// grid, decomposition, remap row and initial state, no step. Once the timing
// is done it assembles one more model on every rank and reports what the
// assembly allocated per rank (setupB/rank: the process's TotalAlloc across
// it over the rank count), then steps the model once and reports the live
// heap the ranks' models hold per owned atmosphere cell (B/cell: the heap of
// a rank over the cells it owns, which the ranks split evenly, is the heap
// of all ranks over the global cell count) — the ladder's memory columns,
// one row per rank count (make footprint). A rank that held the whole globe
// would show r2 ≈ 2 × r1 in B/cell and a flat setupB/rank; one that holds
// and builds its patch shows B/cell falling toward r1 × ext/owned and
// setupB/rank falling toward the whole mesh's topology, which every rank
// still builds.
func BenchmarkAssemble(b *testing.B) {
	for _, cfg := range Configurations() {
		for _, ranks := range []int{1, 2, 4, 8} {
			b.Run(fmt.Sprintf("%s/r%d", cfg.Label, ranks), func(b *testing.B) {
				nc, _, _ := grid.IcosCounts(cfg.AtmLevel)
				par.Run(ranks, func(c *par.Comm) {
					assemble := func() (*ESM, error) {
						return NewWithOptions(cfg, c, WithSpace(pp.Serial{}),
							WithAudit(true))
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
					var alloc uint64
					if c.Rank() == 0 {
						b.StopTimer()
						base = liveHeap()
						alloc = totalAlloc()
					}
					c.Barrier()
					e, err := assemble()
					if err != nil {
						b.Error(err)
						return
					}
					c.Barrier()
					if c.Rank() == 0 {
						alloc = totalAlloc() - alloc
					}
					c.Barrier()
					e.Step()
					c.Barrier()
					if c.Rank() == 0 {
						b.ReportMetric(float64(liveHeap()-base)/float64(nc), "B/cell")
						b.ReportMetric(float64(alloc)/float64(ranks), "setupB/rank")
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

// totalAlloc returns the bytes the process has allocated so far.
func totalAlloc() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.TotalAlloc
}

// setupAlloc returns what assembling cfg in the benchmark's model options
// on ranks ranks allocates per rank: the process's TotalAlloc across one
// NewWithOptions on every rank, over the rank count.
func setupAlloc(tb testing.TB, cfg Config, ranks int) float64 {
	var alloc uint64
	par.Run(ranks, func(c *par.Comm) {
		c.Barrier()
		if c.Rank() == 0 {
			alloc = totalAlloc()
		}
		c.Barrier()
		if _, err := NewWithOptions(cfg, c, WithSpace(pp.Serial{}), WithAudit(true)); err != nil {
			tb.Error(err) // on the rank goroutine: no Fatal, and the barrier below still meets
		}
		c.Barrier()
		if c.Rank() == 0 {
			alloc = totalAlloc() - alloc
		}
	})
	return float64(alloc) / float64(ranks)
}

// meshAlloc returns what building the level's whole mesh allocates, the
// share of set-up every rank still pays.
func meshAlloc(tb testing.TB, level int) float64 {
	alloc := totalAlloc()
	if _, err := grid.NewIcosMesh(level); err != nil {
		tb.Fatal(err)
	}
	return float64(totalAlloc() - alloc)
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
