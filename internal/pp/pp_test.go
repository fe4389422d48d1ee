package pp

import (
	"math"
	"math/rand"
	"strings"
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

func TestParallelReduceSumMatchesSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	n := 5000
	vals := make([]float64, n)
	var want float64
	for i := range vals {
		vals[i] = float64(rng.Intn(100))
		want += vals[i]
	}
	for _, s := range spaces() {
		got := s.ParallelReduce(n, 0, func(i int) float64 { return vals[i] }, func(a, b float64) float64 { return a + b })
		if got != want {
			t.Errorf("%s: sum = %v, want %v", s.Name(), got, want)
		}
	}
}

func TestParallelReduceMax(t *testing.T) {
	vals := []float64{3, -1, 9, 2, 9.5, 0}
	for _, s := range spaces() {
		got := s.ParallelReduce(len(vals), math.Inf(-1),
			func(i int) float64 { return vals[i] },
			math.Max)
		if got != 9.5 {
			t.Errorf("%s: max = %v", s.Name(), got)
		}
	}
}

func TestReduceEmptyRangeReturnsIdentity(t *testing.T) {
	for _, s := range spaces() {
		got := s.ParallelReduce(0, 42, func(i int) float64 { return 0 }, func(a, b float64) float64 { return a + b })
		if got != 42 {
			t.Errorf("%s: got %v", s.Name(), got)
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

func TestCPEScratchCapacity(t *testing.T) {
	c := NewCPE(0)
	if c.Concurrency() != CPEGangSize {
		t.Errorf("gang = %d", c.Concurrency())
	}
	for w := 0; w < CPEGangSize; w++ {
		if len(c.Scratch(w)) != LDMFloats {
			t.Fatalf("worker %d scratch len %d", w, len(c.Scratch(w)))
		}
	}
	// Scratch areas must be distinct.
	c.Scratch(0)[0] = 1
	if c.Scratch(1)[0] == 1 {
		t.Error("scratch areas alias")
	}
}

func TestDefaultSpace(t *testing.T) {
	for name, want := range map[string]string{
		"Serial": "Serial", "MPE": "Serial",
		"Host": "Host", "openmp": "Host",
		"CPE": "CPE", "athread": "CPE",
	} {
		s, err := DefaultSpace(name)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if s.Name() != want {
			t.Errorf("%s -> %s, want %s", name, s.Name(), want)
		}
	}
	if _, err := DefaultSpace("CUDA9000"); err == nil {
		t.Error("expected error for unknown space")
	}
	// Vec was the mixed-kernel-precision wrapper; its name is now rejected
	// with the accepted names in the message.
	if _, err := DefaultSpace("Vec"); err == nil || !strings.Contains(err.Error(), "Serial") {
		t.Errorf("DefaultSpace(Vec) error = %v, want a rejection naming Serial", err)
	}
}

func TestMDRangeTileDecomposition(t *testing.T) {
	r, err := NewMDRange([]int{0, 0}, []int{10, 7}, []int{4, 3})
	if err != nil {
		t.Fatal(err)
	}
	// ceil(10/4)=3 by ceil(7/3)=3 tiles.
	if r.NumTiles() != 9 {
		t.Fatalf("tiles = %d", r.NumTiles())
	}
	covered := [10][7]int{}
	for tile := 0; tile < r.NumTiles(); tile++ {
		lo, hi := r.tileBounds(tile)
		for i := lo[0]; i < hi[0]; i++ {
			for j := lo[1]; j < hi[1]; j++ {
				covered[i][j]++
			}
		}
	}
	for i := range covered {
		for j := range covered[i] {
			if covered[i][j] != 1 {
				t.Errorf("(%d,%d) covered %d times", i, j, covered[i][j])
			}
		}
	}
}

func TestMDRangeValidation(t *testing.T) {
	if _, err := NewMDRange([]int{0}, []int{1, 2}, []int{1}); err == nil {
		t.Error("rank mismatch accepted")
	}
	if _, err := NewMDRange([]int{5}, []int{2}, []int{1}); err == nil {
		t.Error("inverted bounds accepted")
	}
	if _, err := NewMDRange(nil, nil, nil); err == nil {
		t.Error("empty range accepted")
	}
	// Zero tile defaults to the whole extent.
	r, err := NewMDRange([]int{0, 0}, []int{8, 8}, []int{0, 0})
	if err != nil {
		t.Fatal(err)
	}
	if r.NumTiles() != 1 {
		t.Errorf("tiles = %d", r.NumTiles())
	}
}

func TestParallelForMD2WithProfiling(t *testing.T) {
	r, _ := NewMDRange([]int{0, 0}, []int{32, 32}, []int{8, 8})
	var sum int64
	stats := ParallelForMD2(NewHost(4), r, true, func(i, j int) {
		atomic.AddInt64(&sum, int64(i+j))
	})
	want := int64(0)
	for i := 0; i < 32; i++ {
		for j := 0; j < 32; j++ {
			want += int64(i + j)
		}
	}
	if sum != want {
		t.Errorf("sum = %d, want %d", sum, want)
	}
	if stats.Tiles != 16 || len(stats.PerTile) != 16 {
		t.Errorf("stats tiles = %d", stats.Tiles)
	}
	if stats.Imbalance() < 1 {
		t.Errorf("imbalance = %v < 1", stats.Imbalance())
	}
}

func TestParallelForMD3(t *testing.T) {
	r, _ := NewMDRange([]int{0, 0, 0}, []int{3, 4, 5}, []int{1, 2, 5})
	hits := make([]int32, 3*4*5)
	ParallelForMD3(NewCPE(4), r, func(i, j, k int) {
		atomic.AddInt32(&hits[(i*4+j)*5+k], 1)
	})
	for idx, h := range hits {
		if h != 1 {
			t.Fatalf("cell %d visited %d times", idx, h)
		}
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
	if err := reg.LaunchByName("ocean.tracer.advect", NewHost(2), in); err != nil {
		t.Fatal(err)
	}
	if got := reg.LaunchCount("ocean.tracer.advect"); got != 2 {
		t.Errorf("launch count = %d", got)
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
	if names := reg.Names(); len(names) != 1 || names[0] != "k" {
		t.Errorf("names = %v", names)
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

func TestView3IndexingAndLevels(t *testing.T) {
	v := NewView3("temp", 3, 4, 5)
	if v.Size() != 60 {
		t.Fatalf("size = %d", v.Size())
	}
	v.Set(2, 3, 4, 7.5)
	if v.At(2, 3, 4) != 7.5 {
		t.Error("set/at mismatch")
	}
	if v.Index(1, 0, 0) != 20 {
		t.Errorf("index = %d", v.Index(1, 0, 0))
	}
	lvl := v.Level(2)
	if len(lvl) != 20 || lvl[19] != 7.5 {
		t.Errorf("level slice wrong: len=%d last=%v", len(lvl), lvl[len(lvl)-1])
	}
	v.Fill(1)
	if v.At(0, 0, 0) != 1 || v.At(2, 3, 4) != 1 {
		t.Error("fill failed")
	}
	w := NewView3("copy", 3, 4, 5)
	w.CopyFrom(v)
	if w.At(1, 2, 3) != 1 {
		t.Error("copy failed")
	}
}

func TestView3CopyExtentMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	NewView3("a", 1, 2, 3).CopyFrom(NewView3("b", 3, 2, 1))
}
