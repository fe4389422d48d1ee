package atmos_test

// The divergence-damping ablation (A3):
//
//	go test -run '^$' -bench DivergenceDamping ./internal/atmos

import (
	"testing"

	"repro/internal/atmos"
	"repro/internal/pp"
)

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
