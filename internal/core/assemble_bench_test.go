package core

// What assembling the coupled model costs on each rung of the ladder, and
// how much of it is the regridder:
//
//	go test -run '^$' -bench 'Assemble|NewRegridder' ./internal/core

import (
	"testing"

	"repro/internal/grid"
	"repro/internal/par"
	"repro/internal/pp"
)

// BenchmarkAssemble times NewWithOptions on one rank in the benchmark's
// model options (serial space, conservative remap, audit on): every grid,
// decomposition, regridder and initial state, no step.
func BenchmarkAssemble(b *testing.B) {
	for _, cfg := range Configurations() {
		b.Run(cfg.Label, func(b *testing.B) {
			par.Run(1, func(c *par.Comm) {
				for i := 0; i < b.N; i++ {
					if _, err := NewWithOptions(cfg, c, WithSpace(pp.Serial{}),
						WithRemap(RemapCons), WithAudit(true)); err != nil {
						b.Error(err) // on the rank goroutine: no Fatal
						return
					}
				}
			})
		})
	}
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
