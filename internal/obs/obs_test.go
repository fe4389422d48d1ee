package obs

import (
	"math"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/par"
)

func TestSpanNestingAndSections(t *testing.T) {
	sink := NewMemorySink()
	o := New(0, sink)

	outer := o.StartSpan("step")
	inner := o.StartSpan("ocn")
	if got := inner.Path(); got != "step/ocn" {
		t.Fatalf("nested path = %q, want step/ocn", got)
	}
	time.Sleep(time.Millisecond)
	inner.End()
	sib := o.StartSpan("atm")
	if got := sib.Path(); got != "step/atm" {
		t.Fatalf("sibling path = %q, want step/atm (parent restored after End)", got)
	}
	sib.End()
	outer.End()

	d, calls := o.Section("ocn")
	if calls != 1 || d <= 0 {
		t.Fatalf("section ocn = (%v, %d), want one positive call", d, calls)
	}
	if _, calls := o.Section("step"); calls != 1 {
		t.Fatalf("outer section not accumulated")
	}
	names := o.SectionNames()
	want := []string{"atm", "ocn", "step"}
	if len(names) != 3 || names[0] != want[0] || names[1] != want[1] || names[2] != want[2] {
		t.Fatalf("SectionNames = %v, want %v", names, want)
	}

	events := sink.events
	if len(events) != 3 {
		t.Fatalf("emitted %d events, want 3 span events", len(events))
	}
	for _, e := range events {
		if e.Kind != "span" || e.DurNs <= 0 {
			t.Fatalf("bad span event %+v", e)
		}
	}
}

func TestNilSpanAndNop(t *testing.T) {
	var s *Span
	s.End() // must not panic
	if s.Name() != "" || s.Path() != "" {
		t.Fatal("nil span accessors should be empty")
	}
	var o Observer = Nop{}
	o.StartSpan("x").End()
	o.AddCount("c", 1)
	o.ObserveValue("h", 1)
	if pts := o.Snapshot(); pts != nil {
		t.Fatalf("Nop snapshot = %v, want nil", pts)
	}
}

func TestRegistryMetrics(t *testing.T) {
	r := NewRegistry()
	r.Counter("msgs").Add(3)
	r.Counter("msgs").Add(1)
	if v := r.Counter("msgs").Value(); v != 4 {
		t.Fatalf("counter = %d, want 4", v)
	}
	r.Gauge("groups").Set(2.5)
	if v := r.Gauge("groups").Value(); v != 2.5 {
		t.Fatalf("gauge = %g, want 2.5", v)
	}
	h := r.Histogram("lat", 0.001, 0.1)
	h.Observe(0.0005)
	h.Observe(0.05)
	h.Observe(5)
	if h.Count() != 3 || math.Abs(h.Sum()-5.0505) > 1e-12 {
		t.Fatalf("hist count/sum = %d/%g", h.Count(), h.Sum())
	}
	bounds, cum := h.Buckets()
	if len(bounds) != 3 || !math.IsInf(bounds[2], 1) {
		t.Fatalf("bounds = %v", bounds)
	}
	if cum[0] != 1 || cum[1] != 2 || cum[2] != 3 {
		t.Fatalf("cumulative = %v, want [1 2 3]", cum)
	}

	pts := r.Snapshot()
	if len(pts) != 3 {
		t.Fatalf("snapshot = %v, want 3 points", pts)
	}
	if pts[0].Kind != KindCounter || pts[1].Kind != KindGauge || pts[2].Kind != KindHistogram {
		t.Fatalf("snapshot kind order wrong: %v", pts)
	}
}

func TestHistogramConcurrent(t *testing.T) {
	h := NewHistogram()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				h.Observe(0.001)
			}
		}()
	}
	wg.Wait()
	if h.Count() != 8000 {
		t.Fatalf("count = %d, want 8000", h.Count())
	}
	if math.Abs(h.Sum()-8.0) > 1e-9 {
		t.Fatalf("sum = %g, want 8", h.Sum())
	}
}

func TestReduceAcrossRanks(t *testing.T) {
	par.Run(3, func(c *par.Comm) {
		rank := c.Rank()
		pts := []Point{
			{Name: "wall", Kind: KindSection, Value: float64(rank + 1), Count: int64(10 * (rank + 1))},
		}
		if rank == 1 {
			// Only one rank carries this metric; others contribute zero.
			pts = append(pts, Point{Name: "io.bytes", Kind: KindCounter, Value: 512, Count: 512})
		}
		red := Reduce(c, pts)
		if len(red) != 2 {
			t.Errorf("rank %d: reduced %d rows, want 2 (union)", rank, len(red))
			return
		}
		// Sorted by (kind, name): counter first, then section.
		iob, wall := red[0], red[1]
		if iob.Name != "io.bytes" || iob.Kind != KindCounter {
			t.Errorf("rank %d: row 0 = %+v", rank, iob)
		}
		if iob.Max != 512 || iob.Sum != 512 {
			t.Errorf("rank %d: io.bytes max/sum = %g/%g, want 512/512", rank, iob.Max, iob.Sum)
		}
		if wall.Name != "wall" || wall.Max != 3 || wall.Sum != 6 {
			t.Errorf("rank %d: wall = %+v, want max 3 sum 6", rank, wall)
		}
		if wall.MaxCount != 30 || wall.SumCount != 60 {
			t.Errorf("rank %d: wall counts = %d/%d, want 30/60", rank, wall.MaxCount, wall.SumCount)
		}
	})
}

func TestSnapshotOrder(t *testing.T) {
	o := New(0, nil)
	o.AddCount("z.counter", 1)
	o.StartSpan("a.section").End()
	pts := o.Snapshot()
	if len(pts) != 2 {
		t.Fatalf("snapshot = %v", pts)
	}
	if pts[0].Kind != KindSection || pts[1].Kind != KindCounter {
		t.Fatalf("sections must precede registry metrics: %v", pts)
	}
}

func TestPromName(t *testing.T) {
	if got := promName("par.send.bytes"); got != "ap3esm_par_send_bytes" {
		t.Fatalf("promName = %q", got)
	}
	if got := promName("x-y/z"); !strings.HasPrefix(got, "ap3esm_") || strings.ContainsAny(got, "-/") {
		t.Fatalf("promName left invalid chars: %q", got)
	}
}
