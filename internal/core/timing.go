package core

import (
	"fmt"
	"strings"
	"time"

	"repro/internal/obs"
)

// Component timing, the reproduction of the paper's measurement mechanism
// (§6.2): wall-clock timers around each component (GPTL's role), with the
// maximum across ranks reported to account for load imbalance, and a
// getTiming-style summary that converts component and whole-model times to
// SYPD.
//
// Since the obs layer landed, the timers themselves are obs spans; Timing
// is a thin adapter kept so existing call sites read accumulated sections
// the way the old accumulate-map did, and TimingReport is obs.Reduce
// rendered in the getTiming format (byte-compatible with the original).

// Timing exposes per-section accumulated wall time, backed by the model's
// observer.
type Timing struct {
	o obs.Observer
}

// Timing returns the adapter over this model's observer.
func (e *ESM) Timing() *Timing { return &Timing{o: e.obs} }

// Observer returns the model's observability handle.
func (e *ESM) Observer() obs.Observer { return e.obs }

// Section returns the accumulated time and call count of a section.
func (t *Timing) Section(name string) (time.Duration, int) {
	return t.o.Section(name)
}

// TimingRow is one line of the getTiming-style report.
type TimingRow struct {
	Section  string
	Calls    int
	MaxWall  time.Duration // maximum across ranks (§6.2 convention)
	SYPD     float64       // throughput if this section were the whole cost
	Fraction float64       // share of the total
}

// TimingReport reduces the timers across ranks (taking the maximum of both
// wall time and call count, as the paper does to account for load
// imbalance) and renders the per-component summary. Collective: every rank
// must call it; all ranks receive the rows.
func (e *ESM) TimingReport() []TimingRow {
	var local []obs.Point
	for _, p := range e.obs.Snapshot() {
		if p.Kind == obs.KindSection {
			local = append(local, p)
		}
	}
	reduced := obs.Reduce(e.Comm, local)

	simYears := e.SimulatedSeconds() / (365 * 86400)
	var total time.Duration
	rows := make([]TimingRow, 0, len(reduced))
	for _, p := range reduced {
		maxSec := p.Max
		d := time.Duration(maxSec * float64(time.Second))
		total += d
		sypd := 0.0
		if maxSec > 0 {
			sypd = simYears / (maxSec / 86400)
		}
		rows = append(rows, TimingRow{Section: p.Name, Calls: int(p.MaxCount), MaxWall: d, SYPD: sypd})
	}
	for i := range rows {
		if total > 0 {
			rows[i].Fraction = float64(rows[i].MaxWall) / float64(total)
		}
	}
	return rows
}

// FormatTiming renders the rows like the coupler's getTiming output.
func FormatTiming(rows []TimingRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-10s %8s %14s %10s %7s\n", "component", "calls", "max wall", "SYPD", "share")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-10s %8d %14s %10.2f %6.1f%%\n",
			r.Section, r.Calls, r.MaxWall.Round(time.Microsecond), r.SYPD, 100*r.Fraction)
	}
	return b.String()
}

// timed wraps one component invocation with its span.
func (e *ESM) timed(name string, f func()) {
	sp := e.obs.StartSpan(name)
	f()
	sp.End()
}

// sectionAdder is the structural subset of *obs.Obs that folds a duration
// into a section outside the span stack: the concurrent schedule's ocean
// idle time, measured at the join, and the checkpoint's capture and writer
// waits, measured beside a writer goroutine.
type sectionAdder interface {
	AddSection(name string, d time.Duration)
}

// addSection folds d into the named section when the observer keeps
// sections (obs.Nop does not).
func addSection(o obs.Observer, name string, d time.Duration) {
	if h, ok := o.(sectionAdder); ok {
		h.AddSection(name, d)
	}
}
