package ensemble

import (
	"fmt"
	"math"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/obs"
	"repro/internal/par"
	"repro/internal/pp"
	"repro/internal/typhoon"
)

// ensembleStart anchors every member at the Doksuri genesis time, matching
// the best track's first fix.
func ensembleStart() time.Time { return time.Date(2023, 7, 21, 0, 0, 0, 0, time.UTC) }

// Run executes the ensemble over the pool and blocks until every member is
// terminal (completed or quarantined). err is non-nil only for configuration
// problems or a missed quorum — individual member failures are data, not
// errors, and live in the Report either way.
func Run(cfg Config) (*Report, error) {
	if err := cfg.fill(); err != nil {
		return nil, err
	}
	coreCfg, err := core.ConfigForLabel(cfg.Label)
	if err != nil {
		return nil, err
	}
	specs := BuildMembers(cfg)
	plans := make([]*fault.Plan, len(specs))
	for i, s := range specs {
		if plans[i], err = planFor(cfg, s); err != nil {
			return nil, err
		}
	}
	// Group-level straggler injection: the plan armed under the group's
	// dispatch scope makes that group slow to pick up work — the harness the
	// work-stealing benchmark (and nothing in a production run) uses.
	groupScopes := make([]string, cfg.Groups)
	for g := range groupScopes {
		groupScopes[g] = fmt.Sprintf("ens.g%02d", g)
	}
	for g, spec := range cfg.GroupFaults {
		if g < 0 || g >= cfg.Groups {
			return nil, fmt.Errorf("ensemble: GroupFaults index %d outside [0, %d)", g, cfg.Groups)
		}
		p, perr := fault.Parse(spec, cfg.Seed*13+int64(g))
		if perr != nil {
			return nil, fmt.Errorf("ensemble: group %d fault spec: %w", g, perr)
		}
		fault.ArmScoped(groupScopes[g], p)
		defer fault.DisarmScoped(groupScopes[g])
	}

	sched := newScheduler(cfg.Sched, cfg.Members, cfg.Groups)
	results := make([]MemberResult, len(specs))
	for i := range results {
		results[i].Spec = specs[i]
	}
	var steals atomic.Int64

	// Group supervisors: each loops picking members off the scheduler and
	// driving the member's attempt; a member is owned by exactly one group
	// at a time (queue hand-off is the synchronization), so its result slot
	// needs no lock.
	var wg sync.WaitGroup
	for g := 0; g < cfg.Groups; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for {
				// The injectable dispatch point; one atomic load when no
				// group plan is armed.
				if f := fault.PointScoped(groupScopes[g], "ens.dispatch", g); f != nil {
					f.Sleep()
				}
				m, stolen, ok := sched.next(g)
				if !ok {
					return
				}
				if stolen {
					steals.Add(1)
				}
				res := &results[m]
				res.Attempts++
				res.Group = g
				cfg.Obs.AddCount("ens.attempts.total", 1)
				out := runAttempt(cfg, coreCfg, specs[m], plans[m], res.Attempts, g)
				res.Steps, res.Checkpoints = out.steps, out.checkpoints
				res.Rollbacks += out.rollbacks
				if out.err == nil {
					res.Completed = true
					res.Fixes = out.fixes
					res.TrackErrKm = out.trackErr
					res.MinPsPa = out.minPs
					res.MaxWindMS = out.maxWind
					res.MaxHeatResid = out.heatResid
					res.MaxFWResid = out.fwResid
					res.StateSum = out.stateSum
					cfg.Obs.AddCount("ens.members.completed", 1)
					sched.finish()
					continue
				}
				res.FailureChain = append(res.FailureChain,
					fmt.Sprintf("a%d on g%d: %v", res.Attempts, g, out.err))
				if out.deadline {
					cfg.Obs.AddCount("ens.deadline.expired", 1)
				}
				if res.Attempts >= cfg.MaxAttempts {
					res.Quarantined = true
					cfg.Obs.AddCount("ens.members.quarantined", 1)
					sched.finish()
					continue
				}
				cfg.Obs.AddCount("ens.retries.total", 1)
				sched.requeue(m)
			}
		}(g)
	}
	wg.Wait()

	rep := &Report{Members: results, Steals: int(steals.Load())}
	for i := range results {
		if results[i].Completed {
			rep.Completed++
		}
		if results[i].Quarantined {
			rep.Quarantined++
		}
	}
	rep.QuorumMet = rep.Completed >= cfg.Quorum
	rep.Degraded = rep.QuorumMet && rep.Completed < cfg.Members
	rep.Spread = computeSpread(results)
	publish(cfg.Obs, rep)
	if !rep.QuorumMet {
		return rep, fmt.Errorf("ensemble: quorum failed — %d of %d members completed, need %d",
			rep.Completed, cfg.Members, cfg.Quorum)
	}
	return rep, nil
}

// attemptOut is what one attempt hands back to its group supervisor.
type attemptOut struct {
	err      error
	deadline bool // err was the wall-clock fence, not a member failure

	steps, checkpoints, rollbacks int

	fixes                    []typhoon.Fix
	trackErr, minPs, maxWind float64
	heatResid, fwResid       float64
	stateSum                 uint64
}

// runAttempt launches one member attempt as its own par world and supervises
// it against the wall-clock deadline. The world name carries both the member
// and the attempt ("m03#a2"): it scopes the member's fault plan, labels
// par BarrierTimeout errors and who-waits dumps, and — because each
// attempt's name and restart directory are unique — fences a
// deadline-expired attempt completely. The deadline is also what ends an
// attempt whose rank waits on a lost message: par receives have no
// deadline of their own. Go cannot kill the
// zombie world's goroutines, so they are deliberately leaked: their scoped
// plan is disarmed, their restart set is in a directory no retry reads, and
// their result lands in a buffered channel nobody receives from.
func runAttempt(cfg Config, coreCfg core.Config, spec MemberSpec, plan *fault.Plan, attempt, group int) *attemptOut {
	world := fmt.Sprintf("%s#a%d", spec.Name, attempt)
	dir := filepath.Join(cfg.BaseDir, spec.Name, fmt.Sprintf("a%d", attempt))
	if plan != nil {
		fault.ArmScoped(world, plan)
		defer fault.DisarmScoped(world)
	}

	ch := make(chan *attemptOut, 1)
	go func() {
		out := &attemptOut{}
		par.RunNamed(cfg.Ranks, world, func(c *par.Comm) {
			mcfg := coreCfg
			mcfg.AtmCfg.Kh *= spec.KhScale
			mcfg.AtmCfg.KhMomentum *= spec.KhMomScale
			start := ensembleStart()
			stop := start.Add(time.Duration(cfg.Hours * float64(time.Hour)))
			ob := obs.Observer(obs.Nop{})
			if c.Rank() == 0 {
				// Counters are concurrency-safe on the shared ensemble
				// observer; only rank 0 reports, so member counts are not
				// multiplied by the world size.
				ob = cfg.Obs
			}
			mk := func() (*core.ESM, error) {
				e, err := core.NewWithOptions(mcfg, c,
					core.WithInterval(start, stop),
					core.WithSpace(pp.Serial{}),
					core.WithObserver(ob),
					core.WithRemap(core.RemapCons),
					core.WithAudit(true))
				if err != nil {
					return nil, err
				}
				if err := typhoon.Seed(e.Atm, spec.Vortex); err != nil {
					return nil, err
				}
				return e, nil
			}

			var fixes []typhoon.Fix
			prev := typhoon.Fix{LonDeg: spec.Vortex.LonDeg, LatDeg: spec.Vortex.LatDeg}
			record := func(e *core.ESM, ps, u, v []float64) {
				at := e.Clock.Current
				fix, ferr := typhoon.FindCenterNearFields(e.Atm.Mesh, ps, u, v, at, prev,
					cfg.TrackWindowKm, cfg.TrackSearchKm)
				if ferr != nil {
					return
				}
				// A rollback replays steps: drop fixes at or after this time
				// before appending, so the series stays strictly increasing.
				for len(fixes) > 0 && !fixes[len(fixes)-1].Time.Before(at) {
					fixes = fixes[:len(fixes)-1]
				}
				fixes = append(fixes, fix)
				prev = fix
			}
			rc := core.ResilientConfig{
				Days:            cfg.Hours / 24,
				CheckpointEvery: cfg.CheckpointEvery,
				MaxRetries:      cfg.Retries,
				Dir:             dir,
				Backoff:         cfg.Backoff,
				Seed:            cfg.Seed*8191 + int64(spec.Index)*131 + int64(attempt),
				Member:          spec.Name,
				OnCheckpoint: func(e *core.ESM) {
					// Collective gathers on every rank; tracking on rank 0.
					ps := e.GlobalAtmPs()
					u, v := e.GlobalWind10m()
					if c.Rank() == 0 {
						record(e, ps, u, v)
					}
				},
			}
			e, rrep, rerr := core.RunResilient(mk, rc)
			var finalPs, fu, fv []float64
			if rerr == nil {
				finalPs = e.GlobalAtmPs()
				fu, fv = e.GlobalWind10m()
			}
			if c.Rank() != 0 {
				return
			}
			if rrep != nil {
				out.steps, out.checkpoints, out.rollbacks = rrep.Steps, rrep.Checkpoints, len(rrep.Recoveries)
			}
			out.err = rerr
			if rerr != nil {
				return
			}
			record(e, finalPs, fu, fv)
			out.fixes = fixes
			if te, terr := typhoon.TrackError(fixes, typhoon.BestTrackDoksuri()); terr == nil {
				out.trackErr = te
			}
			out.minPs = math.Inf(1)
			for i := range finalPs {
				out.minPs = math.Min(out.minPs, finalPs[i])
				out.maxWind = math.Max(out.maxWind, math.Hypot(fu[i], fv[i]))
			}
			s := e.Budget().Summary()
			out.heatResid, out.fwResid = s.MaxHeatResid, s.MaxFWResid
			out.stateSum = stateSum(finalPs, fu, fv)
		})
		ch <- out
	}()

	if cfg.Deadline <= 0 {
		return <-ch
	}
	timer := time.NewTimer(cfg.Deadline)
	defer timer.Stop()
	select {
	case out := <-ch:
		return out
	case <-timer.C:
		return &attemptOut{
			err:      fmt.Errorf("ensemble: %s exceeded the %v wall-clock deadline (fenced as a straggler)", world, cfg.Deadline),
			deadline: true,
		}
	}
}

// stateSum digests the assembled global surface fields (FNV-1a over the
// float bit patterns) — the member's bit-for-bit identity.
func stateSum(fields ...[]float64) uint64 {
	const offset, prime = 14695981039346656037, 1099511628211
	h := uint64(offset)
	for _, f := range fields {
		for _, v := range f {
			b := math.Float64bits(v)
			for s := 0; s < 64; s += 8 {
				h ^= (b >> s) & 0xff
				h *= prime
			}
		}
	}
	return h
}
