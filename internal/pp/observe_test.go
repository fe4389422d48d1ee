package pp

import (
	"sync"
	"testing"
)

// recordObserver collects counts for the instrumentation tests.
type recordObserver struct {
	mu     sync.Mutex
	counts map[string]int64
}

func newRecordObserver() *recordObserver {
	return &recordObserver{counts: make(map[string]int64)}
}

func (r *recordObserver) AddCount(name string, delta int64) {
	r.mu.Lock()
	r.counts[name] += delta
	r.mu.Unlock()
}

func TestInstrumentCountsLaunches(t *testing.T) {
	o := newRecordObserver()
	s := Instrument(NewHost(2), o)
	if s.Name() != "Host" {
		t.Fatalf("instrumented name = %q, want transparent Host", s.Name())
	}

	var mu sync.Mutex
	sum := 0
	s.ParallelFor(100, func(i int) {
		mu.Lock()
		sum += i
		mu.Unlock()
	})
	if sum != 4950 {
		t.Fatalf("ParallelFor result corrupted: sum = %d", sum)
	}
	if o.counts["pp.for.launches"] != 1 || o.counts["pp.for.iters"] != 100 {
		t.Errorf("for counts = %v", o.counts)
	}
}

func TestInstrumentNilAndRewrap(t *testing.T) {
	base := NewHost(2)
	if got := Instrument(base, nil); got != Space(base) {
		t.Fatal("nil observer must return the space unchanged")
	}
	o1, o2 := newRecordObserver(), newRecordObserver()
	once := Instrument(base, o1)
	twice := Instrument(once, o2)
	in, ok := twice.(*Instrumented)
	if !ok || in.inner != Space(base) {
		t.Fatal("re-instrumenting must replace the observer, not stack wrappers")
	}
	twice.ParallelFor(5, func(int) {})
	if o1.counts["pp.for.launches"] != 0 || o2.counts["pp.for.launches"] != 1 {
		t.Errorf("counts went to the wrong observer: o1=%v o2=%v", o1.counts, o2.counts)
	}
}

func TestRegistryObserverCountsKernels(t *testing.T) {
	o := newRecordObserver()
	reg := NewRegistry()
	reg.SetObserver(o)
	h, err := reg.Register("ocean.baro.step", func(_ Space, args any) {
		v := args.(*float64)
		*v += 1
	})
	if err != nil {
		t.Fatal(err)
	}
	var x float64
	for i := 0; i < 3; i++ {
		if err := reg.Launch(h, Serial{}, &x); err != nil {
			t.Fatal(err)
		}
	}
	if x != 3 {
		t.Fatalf("kernel did not run: x = %g", x)
	}
	if got := o.counts["pp.kernel.ocean.baro.step"]; got != 3 {
		t.Errorf("kernel launch count = %d, want 3", got)
	}
}
