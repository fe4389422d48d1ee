package ocean_test

// The paper's §5.2.2 experiment (E2) and the ocean ablations (A1
// barotropic substeps, A4 Richardson-number mixing):
//
//	go test -run '^$' -bench . ./internal/ocean

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/grid"
	"repro/internal/ocean"
	"repro/internal/par"
	"repro/internal/pp"
)

// BenchmarkOceanCompaction measures the §5.2.2 exclusion: the full
// rectangular tracer sweep vs the compacted wet-column sweep, plus the
// load-balance gain of the wet-point rank remapping.
func BenchmarkOceanCompaction(b *testing.B) {
	g, err := grid.NewTripolar(144, 72, 20)
	if err != nil {
		b.Fatal(err)
	}
	par.Run(1, func(c *par.Comm) {
		blk, _ := grid.NewTripolarDecomp(g, c, 1)
		o, err := ocean.New(g, blk, ocean.DefaultConfig(), pp.Serial{})
		if err != nil {
			b.Fatal(err)
		}
		o.Step() // make state non-trivial
		comp := o.Compact()

		b.Run("full-sweep", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				o.TracerSweepFull()
			}
		})
		b.Run("compacted-sweep", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				o.TracerSweepCompact(comp)
			}
		})
		b.Logf("2-D work saving %.1f%%, 3-D saving %.1f%% (paper: ~30%% resources)",
			100*comp.WorkSaving(), 100*comp.WorkSaving3D())
		block, _ := ocean.BlockOwner(g, 4, 4)
		bal := ocean.BalancedOwner(g, 16)
		b.Logf("load imbalance: block %.2f -> balanced %.2f",
			block.LoadImbalance(g), bal.LoadImbalance(g))
	})
}

// BenchmarkAblationBarotropicSubsteps sweeps the barotropic subcycling
// ratio (the paper's 2 s : 20 s split is 10). Fewer substeps than the CFL
// requirement are rejected by the adaptive guard; more substeps cost
// linearly. This quantifies why LICOM pays for a 10:1 split.
func BenchmarkAblationBarotropicSubsteps(b *testing.B) {
	for _, nsub := range []int{10, 20, 40} {
		b.Run(fmt.Sprintf("nsub-%d", nsub), func(b *testing.B) {
			g, _ := grid.NewTripolar(96, 48, 10)
			par.Run(1, func(c *par.Comm) {
				blk, _ := grid.NewTripolarDecomp(g, c, 1)
				cfg := ocean.DefaultConfig()
				cfg.NBarotropicSub = nsub
				o, err := ocean.New(g, blk, cfg, pp.Serial{})
				if err != nil {
					b.Fatal(err)
				}
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					o.Step()
				}
				b.StopTimer()
				if v := o.MaxSurfaceSpeed(); math.IsNaN(v) {
					b.Fatalf("unstable at nsub=%d", nsub)
				}
				b.ReportMetric(float64(o.Cfg.NBarotropicSub), "effective-nsub")
			})
		})
	}
}

// BenchmarkAblationRiMixing measures the cost of the Richardson-number
// vertical mixing closure (canuto stand-in) on top of the base ocean step.
func BenchmarkAblationRiMixing(b *testing.B) {
	for _, enabled := range []bool{false, true} {
		name := "off"
		if enabled {
			name = "on"
		}
		b.Run("rimixing-"+name, func(b *testing.B) {
			g, _ := grid.NewTripolar(96, 48, 10)
			par.Run(1, func(c *par.Comm) {
				blk, _ := grid.NewTripolarDecomp(g, c, 1)
				cfg := ocean.DefaultConfig()
				cfg.RiMixing = enabled
				o, err := ocean.New(g, blk, cfg, pp.Serial{})
				if err != nil {
					b.Fatal(err)
				}
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					o.Step()
				}
			})
		})
	}
}
