package core

// What assembling the coupled model costs on each rung of the ladder, in
// time and in live heap, and how much of the time is the regridder:
//
//	go test -run '^$' -bench 'Assemble|NewRegridder' ./internal/core

import (
	"runtime"
	"testing"

	"repro/internal/grid"
	"repro/internal/par"
	"repro/internal/pp"
)

// BenchmarkAssemble times NewWithOptions on one rank in the benchmark's
// model options (serial space, conservative remap, audit on): every grid,
// decomposition, regridder and initial state, no step. Once the timing is
// done it assembles one more model, steps it once, and reports the live heap
// that model holds per atmosphere cell (B/cell): the ladder's memory column
// (make footprint).
func BenchmarkAssemble(b *testing.B) {
	for _, cfg := range Configurations() {
		b.Run(cfg.Label, func(b *testing.B) {
			par.Run(1, func(c *par.Comm) {
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
				b.StopTimer()
				base := liveHeap()
				e, err := assemble()
				if err != nil {
					b.Error(err)
					return
				}
				e.Step()
				b.ReportMetric(float64(liveHeap()-base)/float64(e.Atm.Mesh.NCells()), "B/cell")
				runtime.KeepAlive(e)
			})
		})
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
