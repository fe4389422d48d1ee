package core

import (
	"fmt"
	"math"
	"math/rand"
	"time"

	"repro/internal/fault"
	"repro/internal/obs"
	"repro/internal/par"
	"repro/internal/pario"
)

// Resilient driving (§5.2.5's restart path promoted to a supervisor): at
// km-scale the production runs hold ~100k nodes for days, so the
// mean-time-between-failure is shorter than a run and the driver — not the
// operator — must detect faults, roll back to the last good checkpoint, and
// continue. RunResilient is that supervisor for the miniature machine:
// checkpoints at coupling boundaries, per-step physics health guardrails,
// and rollback with exponential backoff, all reported through obs
// ("recovery.*" counters next to the fault plan's "fault.injected.*").

// ResilientConfig parameterizes RunResilient.
type ResilientConfig struct {
	Days            float64       // simulated days to complete
	CheckpointEvery int           // coupling steps between checkpoints (≥ 1)
	MaxRetries      int           // consecutive failed recoveries before giving up
	Dir             string        // restart-set directory (the good set lives here)
	NGroups         int           // pario subfile groups (default 1)
	Backoff         time.Duration // base backoff, doubled per consecutive failure (default 10ms)

	// Seed drives the backoff jitter deterministically. Every rank passes
	// the same seed, so the ranks draw identical delays and stay
	// collectively in step.
	Seed int64

	// OnCheckpoint, when non-nil, runs on every rank right after each
	// checkpoint is captured, with e holding exactly the checkpointed state
	// — the natural cadence for in-flight diagnostics (track fixes, serving
	// snapshots). The checkpoint's commit is still in flight: it is confirmed at
	// the next checkpoint or at the end of the run, and one that fails is
	// rolled back and replayed like any fault. It must be collective-safe:
	// every rank calls it at the same step, so collective gathers
	// (GlobalAtmPs) are fine inside. Work re-done after a rollback
	// re-invokes it for replayed checkpoints; callbacks must tolerate
	// replayed steps.
	OnCheckpoint func(e *ESM)
}

// RecoveryEvent records one detected fault and the rollback that answered it.
type RecoveryEvent struct {
	Step    int           // coupling step at which the fault was detected
	Reason  string        // what failed
	Attempt int           // consecutive attempt number (resets on a good checkpoint)
	Resumed int           // coupling step resumed from (0 = rebuilt initial state, -1 = gave up)
	Backoff time.Duration // the jittered delay slept before this rollback (0 when giving up)
}

// ResilientReport summarizes a resilient run.
type ResilientReport struct {
	Steps       int // coupling steps completed
	Checkpoints int // checkpoint commits confirmed, replays included
	Recoveries  []RecoveryEvent
}

// RunResilient integrates rc.Days simulated days, surviving faults. mk must
// build a fresh ESM in its initial state (including any seeding) on the same
// communicator; it is called once up front and once per rollback, because
// ReadRestart requires a freshly constructed model. Collective: every rank
// runs the same loop and the health/checkpoint verdicts are allreduced, so
// all ranks roll back together. Returns the final model and the recovery
// report; err is non-nil only when MaxRetries consecutive recoveries failed
// or a rebuild failed.
//
// A checkpoint is captured on the step and committed off it: at each
// checkpoint boundary the run takes the previous write's verdict, captures
// the state into its image and hands the image to a writer goroutine, which
// commits it on an I/O communicator of its own while the model steps on
// (DESIGN.md "Fault tolerance"). The rollback point moves only when a
// commit is confirmed. Every rollback and every return waits for the write
// in flight first, so on return rc.Dir holds the final committed set.
func RunResilient(mk func() (*ESM, error), rc ResilientConfig) (*ESM, *ResilientReport, error) {
	if rc.CheckpointEvery < 1 {
		return nil, nil, fmt.Errorf("core: RunResilient needs CheckpointEvery ≥ 1, got %d", rc.CheckpointEvery)
	}
	if rc.Dir == "" {
		return nil, nil, fmt.Errorf("core: RunResilient needs a restart directory")
	}
	if rc.NGroups < 1 {
		rc.NGroups = 1
	}
	if rc.Backoff <= 0 {
		rc.Backoff = 10 * time.Millisecond
	}
	e, err := mk()
	if err != nil {
		return nil, nil, err
	}
	layout, err := newRestartLayout(e)
	if err != nil {
		return nil, nil, err
	}
	w := newCheckpointWriter(e.Comm, rc, layout)
	defer w.stop()
	target := int(rc.Days * float64(e.Cfg.AtmCouplingsPerDay))
	rep := &ResilientReport{}
	goodStep := -1 // step of the last confirmed commit; -1 = none yet
	attempt := 0
	rng := rand.New(rand.NewSource(rc.Seed))
	// settle takes the verdict of the write in flight, if any: a confirmed
	// commit moves the rollback point, a failed one is returned.
	settle := func() error {
		step, werr, ok := w.wait(e.obs)
		switch {
		case !ok:
		case werr != nil:
			return fmt.Errorf("checkpoint at step %d: %w", step, werr)
		default:
			goodStep = step
			rep.Checkpoints++
			attempt = 0
		}
		return nil
	}
	for {
		var err error
		end := e.CouplingSteps() >= target
		if !end {
			// The clock interval may end before the step target — e.g. a
			// coupling period that does not divide the requested days. That
			// is completion, not a fault.
			end, err = e.stepChecked()
		}
		switch {
		case err != nil:
		case end:
			// The run ends only on a confirmed final commit; a failed one is
			// rolled back and redone like any other fault.
			if err = settle(); err == nil {
				rep.Steps = e.CouplingSteps()
				e.obs.SetGauge("recovery.completed_steps", float64(rep.Steps))
				return e, rep, nil
			}
		case e.CouplingSteps()%rc.CheckpointEvery == 0:
			if err = e.checkpointFault(); err == nil {
				if err = settle(); err == nil {
					w.start(e)
					if rc.OnCheckpoint != nil {
						rc.OnCheckpoint(e)
					}
				}
			}
		}
		if err == nil {
			continue
		}
		// The rollback reads the restart set, so the write in flight lands
		// (or fails) first. Its verdict only decides where to resume, which
		// settle records; the fault being answered is err.
		_ = settle()
		attempt++
		ev := RecoveryEvent{Step: e.CouplingSteps(), Reason: err.Error(), Attempt: attempt}
		e.obs.AddCount("recovery.rollbacks", 1)
		if attempt > rc.MaxRetries {
			ev.Resumed = -1
			rep.Recoveries = append(rep.Recoveries, ev)
			e.obs.AddCount("recovery.giveups", 1)
			return e, rep, fmt.Errorf("core: giving up after %d recovery attempts: %w", attempt, err)
		}
		// Exponential backoff with deterministic jitter before retrying: the
		// delay is drawn uniformly from [d/2, d] of the doubled base, and the
		// seed every rank shares keeps the ranks in step.
		shift := attempt - 1
		if shift > 6 {
			shift = 6
		}
		base := rc.Backoff << shift
		delay := base/2 + time.Duration(rng.Int63n(int64(base/2)+1))
		ev.Backoff = delay
		time.Sleep(delay)
		fresh, rerr := rollback(mk, rc, &goodStep, e)
		if rerr != nil {
			ev.Resumed = -1
			rep.Recoveries = append(rep.Recoveries, ev)
			return e, rep, rerr
		}
		// Record Resumed only after rollback has settled where we actually
		// resumed from: a corrupt checkpoint resets goodStep to scratch.
		ev.Resumed = max(goodStep, 0)
		rep.Recoveries = append(rep.Recoveries, ev)
		e = fresh
	}
}

// checkpointFault consults the "core.checkpoint" fault site at a checkpoint
// boundary. The injected verdict is allreduced so a rank-targeted io-error
// rolls every rank back together instead of desynchronizing the checkpoint.
func (e *ESM) checkpointFault() error {
	bad := 0.0
	if f := fault.Point("core.checkpoint", e.Comm.Rank()); f != nil && f.Kind == fault.IOError {
		bad = 1
	}
	if e.Comm.Allreduce(bad, par.OpMax) != 0 {
		return fmt.Errorf("checkpoint at step %d: injected checkpoint io-error", e.couplingSteps)
	}
	return nil
}

// checkpointWriter commits captured restart images off the model's step, on
// one writer goroutine per run. At most one write is in flight, so one image
// serves the whole run; it lives only as long as the run. The writer runs
// commitRestart on comm, split once from the model's communicator: a split
// communicator is a message space of its own, so the writers' collectives
// never meet the model's, and the verdict a write returns is already agreed
// by every rank.
type checkpointWriter struct {
	comm    *par.Comm
	dir     string
	nGroups int
	img     *restartImage

	busy   bool
	step   int // the step the write in flight holds
	writes chan commitRequest
	done   chan error    // the verdict of each write, in order
	exited chan struct{} // closed when the writer goroutine returns
}

type commitRequest struct {
	fields []pario.Field
	o      obs.Observer
}

// newCheckpointWriter starts the writer goroutine. Collective: it splits c.
func newCheckpointWriter(c *par.Comm, rc ResilientConfig, l *restartLayout) *checkpointWriter {
	w := &checkpointWriter{
		comm: c.Split(0, c.Rank()), dir: rc.Dir, nGroups: rc.NGroups, img: newRestartImage(l),
		writes: make(chan commitRequest), done: make(chan error, 1), exited: make(chan struct{}),
	}
	go w.run()
	return w
}

func (w *checkpointWriter) run() {
	defer close(w.exited)
	for req := range w.writes {
		w.done <- w.commit(req)
	}
}

// commit writes one captured image. A panic becomes the write's verdict
// rather than a crash of the process from outside any rank.
func (w *checkpointWriter) commit(req commitRequest) (err error) {
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("core: checkpoint writer panicked: %v", p)
		}
	}()
	return commitRestart(w.comm, w.dir, w.nGroups, req.fields, req.o)
}

// stop ends the writer goroutine once the write in flight, if any, is done.
func (w *checkpointWriter) stop() {
	close(w.writes)
	<-w.exited
}

// start captures e into the image and hands it to the writer. The writer
// must be idle (wait has returned).
func (w *checkpointWriter) start(e *ESM) {
	t0 := time.Now()
	fields := w.img.capture(e)
	addSection(e.obs, "ckpt.capture", time.Since(t0))
	w.busy, w.step = true, e.CouplingSteps()
	w.writes <- commitRequest{fields, e.obs}
}

// wait blocks until the write in flight has its verdict and returns it with
// the step it holds; ok is false when no write was in flight.
func (w *checkpointWriter) wait(o obs.Observer) (step int, err error, ok bool) {
	if !w.busy {
		return 0, nil, false
	}
	t0 := time.Now()
	err = <-w.done
	addSection(o, "ckpt.wait", time.Since(t0))
	w.busy = false
	return w.step, err, true
}

// rollback rebuilds the model at the last good checkpoint. A checkpoint that
// no longer loads (e.g. an injected bit-flip caught by the v2 checksums) is
// discarded and the run restarts from the initial state.
func rollback(mk func() (*ESM, error), rc ResilientConfig, goodStep *int, prev *ESM) (*ESM, error) {
	fresh, err := mk()
	if err != nil {
		return nil, fmt.Errorf("core: rebuilding model for rollback: %w", err)
	}
	if *goodStep < 0 {
		prev.obs.AddCount("recovery.restarts_from_scratch", 1)
		return fresh, nil
	}
	if rerr := fresh.ReadRestart(rc.Dir, rc.NGroups); rerr != nil {
		// ReadRestart may have partially populated the model: rebuild again
		// and fall back to the initial state.
		prev.obs.AddCount("recovery.checkpoint_corrupt", 1)
		*goodStep = -1
		fresh, err = mk()
		if err != nil {
			return nil, fmt.Errorf("core: rebuilding model after corrupt checkpoint: %w", err)
		}
		return fresh, nil
	}
	prev.obs.AddCount("recovery.restores", 1)
	return fresh, nil
}

// stepChecked advances one coupling interval, converting panics to errors
// and validating physics health afterward. done reports that the clock
// interval is exhausted (normal end of run). Collective.
func (e *ESM) stepChecked() (done bool, err error) {
	defer func() {
		if p := recover(); p != nil {
			done, err = false, fmt.Errorf("core: step %d panicked: %v", e.couplingSteps+1, p)
		}
	}()
	if !e.Step() {
		return true, nil
	}
	return false, e.Health()
}

// Health validates the physics guardrails at a coupling boundary: every
// prognostic field finite, surface pressure and ice concentration inside
// physical bounds, and CFL-style wind/current limits, per component. The
// verdict is allreduced so every rank agrees (collective); the distributed
// ocean/ice blocks would otherwise let ranks diverge on whether to roll
// back.
func (e *ESM) Health() error {
	local := e.healthLocal()
	bad := 0.0
	if local != nil {
		bad = 1
	}
	if e.Comm.Allreduce(bad, par.OpMax) != 0 {
		if local != nil {
			return local
		}
		return fmt.Errorf("core: health check failed on another rank at step %d", e.couplingSteps)
	}
	return nil
}

// Physics guardrails. The bounds are generous — they exist to catch NaN/Inf
// propagation and runaway instability, not to police climate.
const (
	healthMinPs   = 3.0e4  // Pa; deeper than any recorded cyclone
	healthMaxPs   = 1.2e5  // Pa
	healthMaxWind = 250.0  // m/s; CFL guardrail for the atmosphere dycore
	healthMaxCur  = 25.0   // m/s; CFL guardrail for the ocean
	healthMaxEta  = 100.0  // m of sea surface height
	healthMaxTemp = 1000.0 // K, atmosphere; runaway detector
)

func (e *ESM) healthLocal() error {
	if e.healthClear() {
		return nil
	}
	return e.healthDiagnose()
}

// healthClear answers the common case, "every guardrail holds", in one
// branch-light pass per field. Each field's test is at least as strict as
// healthDiagnose's (the atmosphere's wind through Atm.WindSpeedBound, one
// pass over U instead of a reconstruction), so a clear verdict means
// healthDiagnose would find nothing; anything else is left to it, which
// names what tripped.
func (e *ESM) healthClear() bool {
	m, o, ice := e.Atm, e.Ocn, e.Ice
	edgeWind := healthMaxWind / m.WindSpeedBound()
	return within(m.Ps, healthMinPs, healthMaxPs) &&
		within(m.T, math.SmallestNonzeroFloat64, healthMaxTemp) && // t > 0
		allFinite(m.Qv) &&
		within(m.U, -edgeWind, edgeWind) &&
		within(o.U, -healthMaxCur, healthMaxCur) &&
		allFinite(o.V) && allFinite(o.T) && allFinite(o.S) &&
		within(o.Eta, -healthMaxEta, healthMaxEta) &&
		within(ice.Conc, -1e-9, 1+1e-9) &&
		allFinite(ice.Thick) && allFinite(e.Lnd.TSoil)
}

// within reports whether every value lies in [lo, hi]; NaN never does.
func within(vals []float64, lo, hi float64) bool {
	for _, v := range vals {
		if !(v >= lo && v <= hi) {
			return false
		}
	}
	return true
}

// allFinite reports whether no value is NaN or ±Inf, without a branch per
// value: v−v is 0 for every finite v and NaN otherwise, and a NaN survives
// the sum.
func allFinite(vals []float64) bool {
	var s0, s1 float64
	i := 0
	for ; i+1 < len(vals); i += 2 {
		s0 += vals[i] - vals[i]
		s1 += vals[i+1] - vals[i+1]
	}
	if i < len(vals) {
		s0 += vals[i] - vals[i]
	}
	return s0+s1 == 0
}

// healthDiagnose scans every guardrail in order and describes the first
// that trips.
func (e *ESM) healthDiagnose() error {
	step := e.couplingSteps
	finite := func(comp, field string, vals []float64) error {
		for i, v := range vals {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return fmt.Errorf("core: %s health: %s[%d] = %v at step %d", comp, field, i, v, step)
			}
		}
		return nil
	}
	m := e.Atm
	for _, f := range []struct {
		name string
		vals []float64
	}{{"ps", m.Ps}, {"t", m.T}, {"qv", m.Qv}, {"u", m.U}} {
		if err := finite("atm", f.name, f.vals); err != nil {
			return err
		}
	}
	for i, v := range m.Ps {
		if v < healthMinPs || v > healthMaxPs {
			return fmt.Errorf("core: atm health: ps[%d] = %.0f Pa outside [%g, %g] at step %d",
				i, v, healthMinPs, healthMaxPs, step)
		}
	}
	for i, v := range m.T {
		if v <= 0 || v > healthMaxTemp {
			return fmt.Errorf("core: atm health: t[%d] = %g K at step %d", i, v, step)
		}
	}
	if w := m.MaxWindLocal(); w > healthMaxWind {
		return fmt.Errorf("core: atm health: max wind %.1f m/s beyond the %g CFL guardrail at step %d",
			w, healthMaxWind, step)
	}
	o := e.Ocn
	for _, f := range []struct {
		name string
		vals []float64
	}{{"u", o.U}, {"v", o.V}, {"t", o.T}, {"s", o.S}, {"eta", o.Eta}} {
		if err := finite("ocn", f.name, f.vals); err != nil {
			return err
		}
	}
	for i, v := range o.Eta {
		if v < -healthMaxEta || v > healthMaxEta {
			return fmt.Errorf("core: ocn health: eta[%d] = %.1f m at step %d", i, v, step)
		}
	}
	for i, v := range o.U {
		if v < -healthMaxCur || v > healthMaxCur {
			return fmt.Errorf("core: ocn health: u[%d] = %.1f m/s beyond the %g CFL guardrail at step %d",
				i, v, healthMaxCur, step)
		}
	}
	ice := e.Ice
	if err := finite("ice", "conc", ice.Conc); err != nil {
		return err
	}
	for i, v := range ice.Conc {
		if v < -1e-9 || v > 1+1e-9 {
			return fmt.Errorf("core: ice health: conc[%d] = %g outside [0, 1] at step %d", i, v, step)
		}
	}
	if err := finite("ice", "thick", ice.Thick); err != nil {
		return err
	}
	if err := finite("lnd", "tsoil", e.Lnd.TSoil); err != nil {
		return err
	}
	return nil
}
