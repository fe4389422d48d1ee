package main

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"runtime"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/obs"
	"repro/internal/par"
	"repro/internal/pp"
	"repro/internal/statestore"
)

// The model workloads run configuration 25v10. One op is five coupling
// steps, one ocean-coupling cycle, so every op holds the same work; its five
// steps are timed apart (see bestOp). A lap is warm-up plus timed ops and
// stays far below 240 steps: Health() trips the 25 m/s ocean guardrail at
// step 290 on 25v10, so a long lap would time a diverged model (README.md).
const (
	modelConfig = "25v10"
	stepsPerOp  = 5
	warmSteps   = 20
	lapOps      = 32 // 20 + 32×5 = 180 steps
	smokeOps    = 4  // -smoke: 20 + 4×5 = 40 steps
	auditGate   = 1e-10
)

var modelStart = time.Date(2023, 7, 21, 0, 0, 0, 0, time.UTC)

// modelSpec is one model workload's lap shape. A lap with no ops is a
// set-up sample: it ends when the first step has completed.
type modelSpec struct {
	ranks     int
	resilient bool // drive through core.RunResilient with two seeded faults
	warm, ops int
	observe   bool // attach obs.New(rank, nil) instead of obs.Nop{}
}

func (s modelSpec) totalSteps() int { return s.warm + s.ops*stepsPerOp }

// layerCounts are the counters a lap reads from outside the model at the
// start and end of its timed window: the model's own sections and the
// traffic counters par, grid and pp already export.
type layerCounts struct {
	atm, ocn, ice       time.Duration
	icosMsgs, icosBytes int64
	triMsgs, triBytes   int64
	p2pMsgs, p2pBytes   int64
	coll                int64
	launches            int64
}

func readCounts(c *par.Comm, e *core.ESM, ob obs.Observer) layerCounts {
	var n layerCounts
	st := c.Stats()
	n.p2pMsgs, n.p2pBytes, n.coll = st.SendMsgs.Load(), st.SendBytes.Load(), st.Collectives.Load()
	o, ok := ob.(*obs.Obs)
	if !ok {
		return n
	}
	n.atm, _ = e.Timing().Section("atm")
	n.ocn, _ = e.Timing().Section("ocn")
	n.ice, _ = e.Timing().Section("ice")
	ctr := func(name string) int64 { return o.Registry().Counter(name).Value() }
	n.icosMsgs = ctr(`cpl.halo.msgs{component="atm"}`)
	n.icosBytes = ctr(`cpl.halo.bytes{component="atm"}`)
	n.triMsgs = ctr(`cpl.halo.msgs{component="ocn"}`)
	n.triBytes = ctr(`cpl.halo.bytes{component="ocn"}`)
	n.launches = ctr("pp.for.launches") + ctr("pp.reduce.launches") + ctr("pp.md.launches")
	return n
}

func (a layerCounts) sub(b layerCounts) layerCounts {
	return layerCounts{
		atm: a.atm - b.atm, ocn: a.ocn - b.ocn, ice: a.ice - b.ice,
		icosMsgs: a.icosMsgs - b.icosMsgs, icosBytes: a.icosBytes - b.icosBytes,
		triMsgs: a.triMsgs - b.triMsgs, triBytes: a.triBytes - b.triBytes,
		p2pMsgs: a.p2pMsgs - b.p2pMsgs, p2pBytes: a.p2pBytes - b.p2pBytes,
		coll: a.coll - b.coll, launches: a.launches - b.launches,
	}
}

// lapResult is what one lap of any workload hands back.
type lapResult struct {
	setup  time.Duration // lap start to the end of the first step or session
	opMs   []float64     // whole ops, in order
	parts  [][]float64   // parts[k]: the times of every op's k-th part, ms
	heapMB float64
	gate   error // nil when the lap's output passed its correctness gate
	failed int   // ops that count as failed: all of a model lap whose gate failed

	// Model laps only.
	hash       uint64        // FNV-1a of the final state, rank 0
	counts     []layerCounts // per rank, over the timed window
	auditResid float64
	rollbacks  int
	redone     int

	// Serve laps only.
	cacheHits, cacheMisses int64
}

// faultHits draws the two one-shot fault positions of a resilient lap: a
// pure function of (seed, lap). Both land inside the timed window.
func faultHits(seed int64, lap, total int) (nanHit, ioHit int) {
	rng := rand.New(rand.NewSource(seed*1000003 + int64(lap)))
	margin := (total - warmSteps) / 8
	lo, hi := warmSteps+margin, total-margin
	return lo + rng.Intn(hi-lo+1), lo + rng.Intn(hi-lo+1)
}

// liveHeapMB collects garbage and returns the live heap.
func liveHeapMB() float64 {
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.HeapAlloc) / (1 << 20)
}

// modelLap runs one lap with fresh state: assemble, warm up, time the ops,
// then check the output. Rank 0 records times and spans.
func modelLap(s modelSpec, seed int64, lap int, dir string, rec *recorder) (lapResult, error) {
	cfg, err := core.ConfigForLabel(modelConfig)
	if err != nil {
		return lapResult{}, err
	}
	total := s.totalSteps()
	res := lapResult{counts: make([]layerCounts, s.ranks), parts: make([][]float64, stepsPerOp)}
	var runErr error
	if s.resilient && s.ops > 0 {
		nanHit, ioHit := faultHits(seed, lap, total)
		plan, err := fault.New(seed,
			fault.Injection{Kind: fault.NaN, Site: "esm.step", Hit: nanHit, Rank: fault.AnyRank},
			fault.Injection{Kind: fault.IOError, Site: "core.checkpoint", Hit: ioHit, Rank: fault.AnyRank})
		if err != nil {
			return lapResult{}, err
		}
		fault.Arm(plan)
		defer fault.Disarm()
	}

	t0 := time.Now()
	par.Run(s.ranks, func(c *par.Comm) {
		rank := c.Rank()
		var r *recorder
		if rank == 0 {
			r = rec
		}
		var ob obs.Observer = obs.Nop{}
		if s.observe {
			ob = obs.New(rank, nil)
		}
		fail := func(err error) {
			if rank == 0 {
				runErr = err
			}
		}
		mk := func() (*core.ESM, error) {
			id := r.begin("core.NewWithOptions")
			defer r.end(id)
			return core.NewWithOptions(cfg, c,
				core.WithInterval(modelStart, modelStart.Add(240*time.Hour)),
				core.WithSpace(pp.Serial{}),
				core.WithRemap(core.RemapCons),
				core.WithAudit(true),
				core.WithObserver(ob))
		}

		// mark runs after every completed step: it times the step as its
		// op's k-th part and closes the op at every stepsPerOp-th step.
		var startCounts layerCounts
		var stepStart, opStart time.Time
		lastStep, opSpan := 0, -1
		mark := func(e *core.ESM) {
			step := e.CouplingSteps()
			now := time.Now()
			if step <= lastStep { // a checkpoint replayed after a rollback
				stepStart = time.Now()
				return
			}
			lastStep = step
			if rank == 0 {
				if step == 1 {
					res.setup = now.Sub(t0)
				}
				if step > s.warm {
					k := (step - s.warm - 1) % stepsPerOp
					res.parts[k] = append(res.parts[k], ms(now.Sub(stepStart)))
				}
			}
			if step >= s.warm && (step-s.warm)%stepsPerOp == 0 {
				if step == s.warm {
					startCounts = readCounts(c, e, ob)
				} else {
					r.end(opSpan)
					if rank == 0 {
						res.opMs = append(res.opMs, ms(now.Sub(opStart)))
					}
				}
				if step < total {
					r.setOp((step - s.warm) / stepsPerOp)
					opSpan = r.begin("op")
				} else {
					r.setOp(-1)
				}
				opStart = time.Now()
			}
			stepStart = time.Now()
		}

		var e *core.ESM
		var err error
		if s.resilient {
			id := r.begin("core.RunResilient")
			var rep *core.ResilientReport
			e, rep, err = core.RunResilient(mk, core.ResilientConfig{
				Days:            (float64(total) + 0.5) / float64(cfg.AtmCouplingsPerDay),
				CheckpointEvery: 1, MaxRetries: 3, Dir: dir, NGroups: 1,
				Backoff: time.Millisecond, Seed: seed, OnCheckpoint: mark,
			})
			r.end(id)
			if err != nil {
				fail(err)
				return
			}
			res.rollbacks = len(rep.Recoveries)
			for _, ev := range rep.Recoveries {
				res.redone += ev.Step - ev.Resumed
			}
			if s.ops > 0 && (rep.Steps != total || res.rollbacks != 2) {
				res.gate = fmt.Errorf("resilient run reported %d steps and %d recoveries, want %d and 2", rep.Steps, res.rollbacks, total)
			}
		} else {
			if e, err = mk(); err != nil {
				fail(err)
				return
			}
			for e.CouplingSteps() < total {
				id := r.begin("core.Step")
				ok := e.Step()
				r.end(id)
				if !ok {
					fail(fmt.Errorf("clock ended at step %d", e.CouplingSteps()))
					return
				}
				mark(e)
			}
		}
		if s.ops == 0 {
			return // a set-up sample: the first step is done
		}
		res.counts[rank] = readCounts(c, e, ob).sub(startCounts)

		// Live heap with every rank's model still referenced.
		c.Barrier()
		if rank == 0 {
			res.heapMB = liveHeapMB()
		}
		c.Barrier()

		// Correctness gate: healthy, conservation audit closed, and the
		// final state hashed for the cross-workload comparison. Both calls
		// are collective.
		herr := e.Health()
		snap, _ := e.CaptureServeSnapshot()
		sum := e.Budget().Summary()
		runtime.KeepAlive(e)
		if rank != 0 {
			return
		}
		res.auditResid = math.Max(sum.MaxHeatResid, sum.MaxFWResid)
		res.hash = stateHash(snap)
		switch {
		case res.gate != nil:
		case herr != nil:
			res.gate = fmt.Errorf("Health() at step %d: %w", total, herr)
		case !(res.auditResid <= auditGate):
			res.gate = fmt.Errorf("audit residual %.3e exceeds %.0e", res.auditResid, auditGate)
		case len(res.opMs) != s.ops:
			res.gate = fmt.Errorf("closed %d ops, want %d", len(res.opMs), s.ops)
		}
		if res.gate != nil {
			res.failed = s.ops
		}
	})
	return res, runErr
}

// stateHash is the FNV-1a hash of the captured state fields: surface
// pressure (what GlobalAtmPs returns), 10 m wind, SST and ice concentration.
// The snapshot's two budget.* residuals stay out: they are round-off left by
// reductions whose order follows the rank count (≈1e-16, gated at 1e-10), so
// they differ between 1 and 2 ranks while the state does not.
func stateHash(snap statestore.Snapshot) uint64 {
	h := fnv.New64a()
	var b [8]byte
	for _, f := range snap.Fields {
		if strings.HasPrefix(f.Name, "budget.") {
			continue
		}
		for _, x := range f.Data {
			binary.LittleEndian.PutUint64(b[:], math.Float64bits(x))
			h.Write(b[:])
		}
	}
	return h.Sum64()
}
