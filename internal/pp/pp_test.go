package pp

import (
	"math/rand"
	"sync/atomic"
	"testing"
	"testing/quick"
)

func spaces() []Space {
	return []Space{Serial{}, NewHost(4), NewCPE(16)}
}

func TestParallelForCoversRangeOnAllBackends(t *testing.T) {
	for _, s := range spaces() {
		for _, n := range []int{0, 1, 7, 64, 1000} {
			hits := make([]int32, n)
			s.ParallelFor(n, func(i int) { atomic.AddInt32(&hits[i], 1) })
			for i, h := range hits {
				if h != 1 {
					t.Errorf("%s n=%d: index %d visited %d times", s.Name(), n, i, h)
				}
			}
		}
	}
}

func TestBackendEquivalenceProperty(t *testing.T) {
	// The same kernel must produce identical output on every backend.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(500)
		in := make([]float64, n)
		for i := range in {
			in[i] = rng.Float64()
		}
		ref := make([]float64, n)
		Serial{}.ParallelFor(n, func(i int) { ref[i] = in[i]*in[i] + 1 })
		for _, s := range []Space{NewHost(3), NewCPE(8)} {
			out := make([]float64, n)
			s.ParallelFor(n, func(i int) { out[i] = in[i]*in[i] + 1 })
			for i := range out {
				if out[i] != ref[i] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestRegistryRegisterAndLaunch(t *testing.T) {
	reg := NewRegistry()
	out := make([]float64, 10)
	h := reg.MustRegister("ocean.tracer.advect", func(s Space, args any) {
		in := args.([]float64)
		s.ParallelFor(len(in), func(i int) { out[i] = 2 * in[i] })
	})
	in := []float64{0, 1, 2, 3, 4, 5, 6, 7, 8, 9}
	if err := reg.Launch(h, Serial{}, in); err != nil {
		t.Fatal(err)
	}
	for i := range out {
		if out[i] != 2*float64(i) {
			t.Errorf("out[%d] = %v", i, out[i])
		}
	}
}

func TestRegistryDuplicateAndMissing(t *testing.T) {
	reg := NewRegistry()
	reg.MustRegister("k", func(Space, any) {})
	if _, err := reg.Register("k", func(Space, any) {}); err == nil {
		t.Error("duplicate registration accepted")
	}
	if err := reg.Launch(HashName("nope"), Serial{}, nil); err == nil {
		t.Error("launch of unregistered kernel succeeded")
	}
	if len(reg.byHash) != 1 {
		t.Errorf("%d kernels registered, want 1", len(reg.byHash))
	}
}

func TestHashNameStable(t *testing.T) {
	// FNV-1a of "a" is a fixed public value; guards accidental algorithm change.
	if HashName("a") != 0xaf63dc4c8601ec8c {
		t.Errorf("HashName(a) = %#x", HashName("a"))
	}
	if HashName("a") == HashName("b") {
		t.Error("distinct names hash equal")
	}
}
