package core

import (
	"time"

	"repro/internal/grid"
	"repro/internal/obs"
	"repro/internal/par"
	"repro/internal/pp"
)

// options collects the assembly parameters behind NewWithOptions.
type options struct {
	start, stop time.Time
	sp          pp.Space
	obs         obs.Observer
	schedule    Schedule
	audit       bool

	// dry, when set, edits the ocean grid's land mask before any component
	// reads it: the tests' way to give the model unmapped atmosphere cells.
	dry func(g *grid.Tripolar)
}

// Option configures model assembly.
type Option func(*options)

// WithInterval sets the simulated interval [start, stop).
func WithInterval(start, stop time.Time) Option {
	return func(o *options) { o.start, o.stop = start, stop }
}

// WithSpace selects the execution space the components run their kernels
// on; nil selects Serial.
func WithSpace(sp pp.Space) Option {
	return func(o *options) { o.sp = sp }
}

// WithObserver attaches an observability handle: component steps become
// spans on it, the communicator's traffic counters feed it, and the
// execution space is wrapped with launch accounting. Pass obs.Nop{} to
// disable instrumentation entirely; by default the model accumulates
// timings in memory (no sink), preserving the classic TimingReport.
func WithObserver(o obs.Observer) Option {
	return func(opt *options) { opt.obs = o }
}

// WithSchedule selects how the component groups advance within a coupling
// interval: ScheduleSeq (default) runs them strictly in sequence on every
// rank, ScheduleConc overlaps the ocean's baroclinic substeps with the
// atmosphere + land group. Both schedules are bit-for-bit identical.
func WithSchedule(s Schedule) Option {
	return func(opt *options) { opt.schedule = s }
}

// RemapMode has one value, RemapCons, and WithRemap selects nothing: the
// first-order conservative remap is the model's only air–sea flux path.
// Both are a compatibility shim for the benchmark module (bench/), their
// only caller; they go when its next revision (ROADMAP item 5(a)) drops
// its three WithRemap(RemapCons) calls.
type RemapMode struct{}

// RemapCons names the model's air–sea flux remap (see RemapMode).
var RemapCons RemapMode

// WithRemap leaves the model as it is (see RemapMode).
func WithRemap(RemapMode) Option {
	return func(*options) {}
}

// WithAudit enables the conservation-audit ledger: every ocean coupling
// interval tallies the globally reduced interface and storage terms and
// streams them through the observer's budget.* gauges; Budget() returns the
// ledger for reports. Off by default — the audit adds one small collective
// per coupling interval.
func WithAudit(on bool) Option {
	return func(opt *options) { opt.audit = on }
}

// defaultOptions mirrors the quickstart setup: one simulated day from the
// repository's reference start date, Serial space, in-memory observer.
func defaultOptions() options {
	start := time.Date(2023, 7, 21, 0, 0, 0, 0, time.UTC)
	return options{
		start: start,
		stop:  start.Add(24 * time.Hour),
		sp:    pp.Serial{},
	}
}

// NewWithOptions assembles the coupled model over the communicator with
// functional options.
func NewWithOptions(cfg Config, c *par.Comm, opts ...Option) (*ESM, error) {
	opt := defaultOptions()
	for _, apply := range opts {
		apply(&opt)
	}
	if opt.sp == nil {
		opt.sp = pp.Serial{}
	}
	if opt.obs == nil {
		opt.obs = obs.New(c.Rank(), nil)
	}
	return assemble(cfg, c, opt)
}
