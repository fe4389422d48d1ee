package repro

// Ablation benchmarks for the reproduction's own design choices, as
// DESIGN.md commits to: each isolates one mechanism the headline results
// rely on and measures its cost or stability effect.

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/aiphys"
	"repro/internal/atmos"
	"repro/internal/grid"
	"repro/internal/ocean"
	"repro/internal/par"
	"repro/internal/pp"
)

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

// BenchmarkAblationAIWidth sweeps the AI tendency CNN width from the
// laptop training size to the paper's ~5e5-parameter architecture,
// measuring per-column inference cost — the trade the paper's suite makes
// against tensor-unit throughput.
func BenchmarkAblationAIWidth(b *testing.B) {
	m, err := atmos.New(2, 30, atmos.DefaultConfig(), pp.Serial{})
	if err != nil {
		b.Fatal(err)
	}
	for _, width := range []int{8, 32, 110} {
		b.Run(fmt.Sprintf("width-%d", width), func(b *testing.B) {
			suite, _, err := aiphys.TrainedSuite(m, width, 32, 1, 5)
			if err != nil {
				b.Fatal(err)
			}
			nlev := m.NLev
			in := atmos.ColumnIn{
				U: make([]float64, nlev), V: make([]float64, nlev),
				T: make([]float64, nlev), Q: make([]float64, nlev),
				P: make([]float64, nlev), TSkin: 290,
			}
			for k := 0; k < nlev; k++ {
				in.T[k] = 270
				in.P[k] = m.Sig[k] * atmos.P0
			}
			out := atmos.ColumnOut{
				DT: make([]float64, nlev), DQ: make([]float64, nlev),
				DU: make([]float64, nlev), DV: make([]float64, nlev),
			}
			b.ReportMetric(float64(suite.CNN.Params.Count()), "params")
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				suite.Column(in, 480, &out)
			}
		})
	}
}

// BenchmarkAblationDivergenceDamping runs the atmosphere with and without
// divergence damping from a perturbed state and reports the resulting
// maximum wind — the noise-control mechanism of the dycore.
func BenchmarkAblationDivergenceDamping(b *testing.B) {
	run := func(div4 float64) float64 {
		cfg := atmos.DefaultConfig()
		cfg.Div4 = div4
		m, err := atmos.New(3, 6, cfg, pp.NewHost(0))
		if err != nil {
			b.Fatal(err)
		}
		m.Ps[10] += 800
		m.Ps[321] -= 800
		for s := 0; s < 2*cfg.PhysicsEvery; s++ {
			m.Step()
		}
		return m.MaxWind()
	}
	var with, without float64
	for i := 0; i < b.N; i++ {
		with = run(0.02)
		without = run(0)
	}
	b.ReportMetric(with, "maxwind-damped")
	b.ReportMetric(without, "maxwind-undamped")
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
					blk.Exchange(f)
				}
			})
		})
	}
}
