package ensemble

import (
	"sync"
	"testing"

	"repro/internal/fault"
)

// Both schedulers hand every member out exactly once and report terminal
// drain.
func TestSchedulersDeliverAllMembers(t *testing.T) {
	for _, kind := range []string{SchedSteal, SchedStatic} {
		s := newScheduler(kind, 8, 3)
		var mu sync.Mutex
		seen := make(map[int]int)
		var wg sync.WaitGroup
		for g := 0; g < 3; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				for {
					m, _, ok := s.next(g)
					if !ok {
						return
					}
					mu.Lock()
					seen[m]++
					mu.Unlock()
					s.finish()
				}
			}(g)
		}
		wg.Wait()
		if len(seen) != 8 {
			t.Fatalf("%s: delivered %d members, want 8", kind, len(seen))
		}
		for m, n := range seen {
			if n != 1 {
				t.Fatalf("%s: member %d delivered %d times", kind, m, n)
			}
		}
	}
}

// A requeued member goes back to its home queue under static scheduling and
// counts as stolen under work stealing only when a foreign group takes it.
func TestSchedulerRequeueAndSteal(t *testing.T) {
	st := newStaticSched(4, 2)
	m, _, ok := st.next(0)
	if !ok || m%2 != 0 {
		t.Fatalf("static group 0 got member %d", m)
	}
	st.requeue(m)
	if m2, _, _ := st.next(0); m2 != 2 {
		t.Fatalf("static pop after requeue = %d, want FIFO order 2", m2)
	}

	ws := newStealSched(4, 2)
	if m, stolen, _ := ws.next(0); m != 0 || stolen {
		t.Fatalf("first steal pop = (%d, %v), want home member 0", m, stolen)
	}
	if m, stolen, _ := ws.next(0); m != 1 || !stolen {
		t.Fatalf("second steal pop = (%d, %v), want stolen member 1", m, stolen)
	}
}

// The dispatch path must not allocate in steady state: a slow group cycling
// members through next/requeue and the disarmed fault hook are its ops.
func TestDispatchPathDoesNotAllocate(t *testing.T) {
	fault.Disarm()
	s := newStealSched(4, 2)
	if n := testing.AllocsPerRun(2000, func() {
		m, _, ok := s.next(0)
		if !ok {
			t.Fatal("queue closed early")
		}
		s.requeue(m)
	}); n != 0 {
		t.Errorf("steal next/requeue allocates %.1f per op", n)
	}
	st := newStaticSched(4, 2)
	if n := testing.AllocsPerRun(2000, func() {
		m, _, ok := st.next(0)
		if !ok {
			t.Fatal("queue closed early")
		}
		st.requeue(m)
	}); n != 0 {
		t.Errorf("static next/requeue allocates %.1f per op", n)
	}
	if n := testing.AllocsPerRun(2000, func() {
		if f := fault.PointScoped("ens.g00", "ens.dispatch", 0); f != nil {
			t.Fatal("disarmed hook fired")
		}
	}); n != 0 {
		t.Errorf("disarmed dispatch hook allocates %.1f per op", n)
	}
}
