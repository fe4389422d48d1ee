package pp_test

// The paper's §5.3 experiment (E6): one kernel through every execution
// space, and the hash-registry dispatch.
//
//	go test -run '^$' -bench Portability ./internal/pp

import (
	"math/rand"
	"testing"

	"repro/internal/pp"
)

// BenchmarkPortabilityBackends runs the same axpy-like kernel through every
// execution space (§5.3) and the hash-registry dispatch.
func BenchmarkPortabilityBackends(b *testing.B) {
	const n = 1 << 20
	x := make([]float64, n)
	y := make([]float64, n)
	rng := rand.New(rand.NewSource(9))
	for i := range x {
		x[i] = rng.Float64()
	}
	kernel := func(sp pp.Space) {
		sp.ParallelFor(n, func(i int) { y[i] = 2.5*x[i] + y[i] })
	}
	for _, sp := range []pp.Space{pp.Serial{}, pp.NewHost(0), pp.NewCPE(256)} {
		b.Run(sp.Name(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				kernel(sp)
			}
		})
	}
	b.Run("hash-registry-dispatch", func(b *testing.B) {
		reg := pp.NewRegistry()
		h := reg.MustRegister("bench.axpy", func(sp pp.Space, args any) { kernel(sp) })
		sp := pp.NewHost(0)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := reg.Launch(h, sp, nil); err != nil {
				b.Fatal(err)
			}
		}
	})
}
