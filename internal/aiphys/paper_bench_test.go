package aiphys_test

// The paper's §5.2.1 experiment (E1) and the AI-width ablation (A2):
//
//	go test -run '^$' -bench . ./internal/aiphys

import (
	"fmt"
	"testing"

	"repro/internal/aiphys"
	"repro/internal/atmos"
	"repro/internal/pp"
)

// BenchmarkAIPhysicsSuite compares the per-column cost of the AI physics
// suite against the conventional suite (§5.2.1: physics unified into tensor
// kernels) and reports the trained test losses.
func BenchmarkAIPhysicsSuite(b *testing.B) {
	m, err := atmos.New(2, 8, atmos.DefaultConfig(), pp.Serial{})
	if err != nil {
		b.Fatal(err)
	}
	suite, res, err := aiphys.TrainedSuite(m, 8, 200, 6, 42)
	if err != nil {
		b.Fatal(err)
	}
	conv := atmos.NewConventionalSuite(m)

	nlev := m.NLev
	in := atmos.ColumnIn{
		U: make([]float64, nlev), V: make([]float64, nlev),
		T: make([]float64, nlev), Q: make([]float64, nlev),
		P:   make([]float64, nlev),
		Lat: 0.3, TSkin: 300, CosZ: 0.7,
	}
	for k := 0; k < nlev; k++ {
		in.T[k] = 280
		in.P[k] = m.Sig[k] * atmos.P0
		in.Q[k] = 0.004
	}
	out := atmos.ColumnOut{
		DT: make([]float64, nlev), DQ: make([]float64, nlev),
		DU: make([]float64, nlev), DV: make([]float64, nlev),
	}

	b.Run("conventional", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			conv.Column(in, 480, &out)
		}
	})
	b.Run("ai-powered", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			suite.Column(in, 480, &out)
		}
	})
	b.Logf("trained test loss: CNN %.3f, MLP %.3f (zero-predictor baseline ≈ 1.0)",
		res.TestLossCNN, res.TestLossMLP)
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
