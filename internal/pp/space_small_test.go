package pp

import "testing"

// Small-n regression for the CPE worker cap: spawning min(GOMAXPROCS, 64)
// goroutines when n <= chunk leaves all but one idle. With the cap at
// ⌈n/chunk⌉ the results must stay identical to the serial reference on
// every backend, across n spanning empty, sub-chunk, chunk-boundary, and
// multi-gang sizes.
func TestSmallNAllBackends(t *testing.T) {
	sizes := []int{0, 1, 3, 15, 16, 17, 63, 64, 65, 128, 129, 1024, 1057}
	backends := []Space{Serial{}, NewHost(4), NewCPE(16), NewCPE(64), NewCPE(1)}
	for _, n := range sizes {
		in := make([]float64, n)
		for i := range in {
			in[i] = float64((i*37)%201 - 100)
		}
		ref := make([]float64, n)
		Serial{}.ParallelFor(n, func(i int) { ref[i] = in[i]*in[i] + 1 })
		for _, s := range backends {
			out := make([]float64, n)
			s.ParallelFor(n, func(i int) { out[i] = in[i]*in[i] + 1 })
			for i := range out {
				if out[i] != ref[i] {
					t.Fatalf("%s n=%d: ParallelFor out[%d] = %g, want %g", s.Name(), n, i, out[i], ref[i])
				}
			}
		}
	}
}

// The cap itself: never more workers than occupied chunks, never zero for
// positive n, never above the gang.
func TestCPEProcsFor(t *testing.T) {
	c := NewCPE(16)
	for _, tc := range []struct{ n, max int }{
		{1, 1}, {16, 1}, {17, 2}, {32, 2}, {33, 3}, {16 * 64, 64}, {1 << 20, 64},
	} {
		got := c.procsFor(tc.n)
		if got < 1 || got > tc.max || got > c.gang {
			t.Errorf("procsFor(%d) = %d, want in [1, %d]", tc.n, got, tc.max)
		}
	}
}
