package core

import (
	"time"

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
	remap       RemapMode
	audit       bool
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

// WithRemap selects the air–sea flux remap mode: RemapNN (default, the
// historical nearest-neighbour delivery) or RemapCons (first-order
// conservative overlap weights, closing the coupled heat and freshwater
// budgets to round-off).
func WithRemap(m RemapMode) Option {
	return func(opt *options) { opt.remap = m }
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
