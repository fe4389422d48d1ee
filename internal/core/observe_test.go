package core

import (
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/par"
	"repro/internal/pp"
)

// TestObservedRun drives the acceptance scenario of the observability layer:
// a two-rank quickstart-config run into a shared JSONL sink must produce
// span events for every component section on every rank, plus nonzero par
// traffic counters and each rank's atm.decomp.{owned,ext} partition gauges
// after FlushMetrics. The run is audited: the audit's reduction is the one
// collective a coupled step makes (the coupling itself is point-to-point),
// so the collective counter has something to count.
func TestObservedRun(t *testing.T) {
	cfg, err := ConfigForLabel("25v10")
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "run.jsonl")
	sink, err := obs.NewJSONLSink(path)
	if err != nil {
		t.Fatal(err)
	}
	start := time.Date(2023, 7, 21, 0, 0, 0, 0, time.UTC)
	par.Run(2, func(c *par.Comm) {
		o := obs.New(c.Rank(), sink)
		e, err := NewWithOptions(cfg, c,
			WithInterval(start, start.Add(24*time.Hour)),
			WithSpace(pp.NewHost(0)),
			WithAudit(true),
			WithObserver(o))
		if err != nil {
			t.Error(err)
			return
		}
		for i := 0; i < 10; i++ {
			e.Step()
		}
		o.FlushMetrics()
	})
	if err := sink.Close(); err != nil {
		t.Fatal(err)
	}

	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var events []obs.Event
	for dec := json.NewDecoder(f); ; {
		var e obs.Event
		if err := dec.Decode(&e); err == io.EOF {
			break
		} else if err != nil {
			t.Fatal(err)
		}
		events = append(events, e)
	}
	spans := map[string]map[int]int{} // section -> rank -> count
	counters := map[string]float64{}
	gauges := map[string]map[int]float64{} // name -> rank -> value
	for _, e := range events {
		switch e.Kind {
		case "span":
			if spans[e.Name] == nil {
				spans[e.Name] = map[int]int{}
			}
			spans[e.Name][e.Rank]++
		case "counter":
			counters[e.Name] += e.Value
		case "gauge":
			if gauges[e.Name] == nil {
				gauges[e.Name] = map[int]float64{}
			}
			gauges[e.Name][e.Rank] = e.Value
		}
	}
	// The partition is on the record per rank: 321 of 642 cells owned, and a
	// stepped patch (owned + ring-1 halo) well short of the whole sphere.
	for rank := 0; rank < 2; rank++ {
		owned, ext := gauges["atm.decomp.owned"][rank], gauges["atm.decomp.ext"][rank]
		if owned != 321 || ext <= owned || ext > 1.25*owned {
			t.Errorf("rank %d: atm.decomp.owned = %v, atm.decomp.ext = %v, want 321 owned and owned < ext ≤ 1.25·owned", rank, owned, ext)
		}
	}
	for _, sec := range []string{"atm", "ice", "ocn"} {
		for rank := 0; rank < 2; rank++ {
			if spans[sec][rank] == 0 {
				t.Errorf("no %q span events from rank %d", sec, rank)
			}
		}
	}
	for _, name := range []string{"par.send.bytes", "par.recv.bytes", "par.collective.calls"} {
		if counters[name] <= 0 {
			t.Errorf("counter %q = %g, want > 0 after FlushMetrics", name, counters[name])
		}
	}
	if counters["pp.for.launches"] <= 0 {
		t.Errorf("instrumented space did not count launches: %v", counters["pp.for.launches"])
	}
}

// TestNewWithOptionsDefaults checks that the options constructor with no
// options behaves like the classic quickstart defaults and that the legacy
// positional New still produces an identical model trajectory.
func TestNewWithOptionsDefaults(t *testing.T) {
	cfg, err := ConfigForLabel("1v1")
	if err != nil {
		t.Fatal(err)
	}
	start := time.Date(2023, 7, 21, 0, 0, 0, 0, time.UTC)
	par.Run(1, func(c *par.Comm) {
		a, err := NewWithOptions(cfg, c)
		if err != nil {
			t.Error(err)
			return
		}
		b, err := NewWithOptions(cfg, c, WithInterval(start, start.Add(24*time.Hour)), WithSpace(pp.Serial{}))
		if err != nil {
			t.Error(err)
			return
		}
		for i := 0; i < 5; i++ {
			a.Step()
			b.Step()
		}
		wa, _ := a.Atm.MinPs()
		wb, _ := b.Atm.MinPs()
		if wa != wb {
			t.Errorf("defaults diverge from positional New: min ps %v vs %v", wa, wb)
		}
	})
}

// TestNopObserverSkipsInstrumentation checks the disabled path: with
// obs.Nop the model must not wrap the space or forward communicator counts.
func TestNopObserverSkipsInstrumentation(t *testing.T) {
	cfg, err := ConfigForLabel("1v1")
	if err != nil {
		t.Fatal(err)
	}
	par.Run(1, func(c *par.Comm) {
		e, err := NewWithOptions(cfg, c, WithObserver(obs.Nop{}))
		if err != nil {
			t.Error(err)
			return
		}
		e.Step()
		if _, calls := e.Timing().Section("atm"); calls != 0 {
			t.Errorf("Nop observer accumulated sections (%d calls)", calls)
		}
	})
}
