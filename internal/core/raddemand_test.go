package core

import (
	"fmt"
	"math"
	"testing"
	"time"

	"repro/internal/grid"
	"repro/internal/obs"
	"repro/internal/par"
	"repro/internal/pp"
)

// notRead fills the trace slots of cells a rank does not read at an
// observation; GSW/GLW are never negative.
const notRead = -1

// radTrace runs the model and returns, per rank, every value of GSW/GLW at
// the moment a reader consumes it — the land-stepped cells after each step
// (landStep has just read them and nothing writes them before the next
// step), the owned cells before each step whose ocean alarm is due (what
// oceanImport is about to read) — as one [GSW, GLW] pair per cell per
// observation, notRead where the rank is not a reader, so traces line up
// across rank counts. state is the final coupled state as one global image
// (rank 0's copy).
//
// With restartAt > 0 the run checkpoints after that many steps, resumes in a
// freshly assembled model, and checks that the held GSW/GLW of every reader
// on the rank — owned cells and land-stepped halo cells — came back exactly
// as they were written.
// landStepped visits the cells whose land column e steps with each cell's
// global id c and its local id lc.
func landStepped(e *ESM, fn func(c, lc int)) {
	e.forLand(func(_, lc int) {
		c := lc
		if e.Atm.Decomp() != nil {
			c = int(e.Atm.Mesh.GlobalCell[lc])
		}
		fn(c, lc)
	})
}

func radTrace(t *testing.T, ranks int, sched Schedule, steps, restartAt int) (traces [][]float64, state []float64) {
	t.Helper()
	cfg, err := ConfigForLabel("25v10")
	if err != nil {
		t.Fatal(err)
	}
	start := time.Date(2023, 7, 21, 0, 0, 0, 0, time.UTC)
	dir := t.TempDir()
	traces = make([][]float64, ranks)
	par.Run(ranks, func(c *par.Comm) {
		build := func() *ESM {
			e, err := NewWithOptions(cfg, c, WithInterval(start, start.Add(24*time.Hour)),
				WithSpace(pp.Serial{}), WithSchedule(sched), WithAudit(true))
			if err != nil {
				t.Error(err)
			}
			return e
		}
		e := build()
		if e == nil {
			return
		}
		// Traces are indexed by global cell; the atmosphere's arrays by the
		// local id the readers pass alongside it.
		nc64, _, _ := grid.IcosCounts(e.Atm.Mesh.Level)
		nc := int(nc64)
		var tr []float64
		observe := func(e *ESM, readers func(func(c, lc int))) {
			obsv := make([]float64, 2*nc)
			for i := range obsv {
				obsv[i] = notRead
			}
			readers(func(cell, lc int) { obsv[2*cell], obsv[2*cell+1] = e.Atm.GSW[lc], e.Atm.GLW[lc] })
			tr = append(tr, obsv...)
		}
		for i := 0; i < steps; i++ {
			if restartAt > 0 && i == restartAt {
				if e.Clock.Due("ocn") {
					t.Errorf("step %d is a radiation step; the restart must fall inside a hold", i)
				}
				if err := e.WriteRestart(dir, 1); err != nil {
					t.Error(err)
					return
				}
				fresh := build()
				if fresh == nil {
					return
				}
				if err := fresh.ReadRestart(dir, 1); err != nil {
					t.Error(err)
					return
				}
				same := func(cell, lc int) {
					if fresh.Atm.GSW[lc] != e.Atm.GSW[lc] || fresh.Atm.GLW[lc] != e.Atm.GLW[lc] {
						t.Errorf("rank %d cell %d: held GSW/GLW %v/%v restored as %v/%v", c.Rank(), cell,
							e.Atm.GSW[lc], e.Atm.GLW[lc], fresh.Atm.GSW[lc], fresh.Atm.GLW[lc])
					}
				}
				e.forAtmOwned(same)
				landStepped(e, same)
				e = fresh
			}
			if e.Clock.Due("ocn") {
				observe(e, e.forAtmOwned)
			}
			if !e.Step() {
				t.Errorf("clock exhausted at step %d", i)
				return
			}
			observe(e, func(fn func(c, lc int)) { landStepped(e, fn) })
		}
		traces[c.Rank()] = tr

		// Every call below is collective.
		if err := e.Health(); err != nil {
			t.Errorf("rank %d: %v", c.Rank(), err)
		}
		st := globalCoupledState(e)
		o := e.Ocn
		n2 := o.LNI * o.LNJ
		for k := 0; k < o.NL; k++ {
			st = append(st, o.B.GatherGlobal(o.T[k*n2:(k+1)*n2])...)
			st = append(st, o.B.GatherGlobal(o.S[k*n2:(k+1)*n2])...)
		}
		for _, f := range [][]float64{o.Eta, e.Ice.Conc, e.Ice.Thick} {
			st = append(st, o.B.GatherGlobal(f)...)
		}
		if c.Rank() == 0 {
			state = st
			if s := e.Budget().Summary(); s.N == 0 || s.MaxHeatResid > 1e-10 || s.MaxFWResid > 1e-10 {
				t.Errorf("audit residuals %.3e/%.3e over %d intervals exceed the 1e-10 gate", s.MaxHeatResid, s.MaxFWResid, s.N)
			}
		}
	})
	return traces, state
}

// The contract of the radiation step: every rank, schedule and restart sees
// the same held values. Against the 1-rank sequential run, every GSW/GLW
// value a reader consumes and the final coupled state are bit-identical at
// 1, 2 and 4 ranks under both schedules, with the audit closed to 1e-10, and
// across a checkpoint written in the middle of a hold — when every reader,
// the land columns of a rank's halo included, lives on a diagnosis two steps
// old that only the restart file carries.
func TestRadiationDemandBitForBit(t *testing.T) {
	const steps, restartAt = 12, 7 // radiation steps 5 and 10, imports before steps 1, 6, 11; restart two steps into a hold
	counts := []int{1, 2, 4}
	if testing.Short() {
		counts = []int{1, 2}
	}
	traces, refState := radTrace(t, 1, ScheduleSeq, steps, 0)
	refTrace := traces[0]
	if len(refTrace) == 0 || len(refState) == 0 {
		t.Fatal("empty reference run")
	}
	for _, ranks := range counts {
		for _, sched := range []Schedule{ScheduleSeq, ScheduleConc} {
			t.Run(fmt.Sprintf("ranks=%d/%v/cons", ranks, sched), func(t *testing.T) {
				got, state := radTrace(t, ranks, sched, steps, restartAt)
				read := make([]bool, len(refTrace))
				for r := range got {
					if len(got[r]) != len(refTrace) {
						t.Fatalf("rank %d: trace length %d, reference %d", r, len(got[r]), len(refTrace))
					}
					for i, v := range got[r] {
						if v == notRead {
							continue
						}
						read[i] = true
						if v != refTrace[i] {
							t.Fatalf("rank %d: trace[%d] = %v, 1-rank reference %v", r, i, v, refTrace[i])
						}
					}
				}
				for i, v := range refTrace {
					if v != notRead && !read[i] {
						t.Fatalf("trace[%d]: the reference reads a value no rank read", i)
					}
				}
				if len(state) != len(refState) {
					t.Fatalf("final state has %d values, reference %d", len(state), len(refState))
				}
				for i := range state {
					if state[i] != refState[i] {
						t.Fatalf("final state[%d] = %v, 1-rank reference %v", i, state[i], refState[i])
					}
				}
			})
		}
	}
}

// The cost of the hold, measured: a twin of the model that diagnoses every
// column on every step (a nil mask, radiation as it was before it had its
// own time step) runs beside the model for one simulated day. The held
// long-wave flux the land reads lags the fresh one by at most four steps (32
// simulated minutes) of a diurnal-mean atmosphere, and what that does to the
// land skin temperature and, through it, to the atmosphere stays inside the
// budget DESIGN.md "Radiation step and hold" states (`make budget-rad`).
func TestRadiationHoldDrift(t *testing.T) {
	cfg, err := ConfigForLabel("25v10")
	if err != nil {
		t.Fatal(err)
	}
	if testing.Short() {
		t.Skip("the budget is stated for a full simulated day (the first hours of a cold start drift fastest)")
	}
	steps := cfg.AtmCouplingsPerDay
	par.Run(1, func(c *par.Comm) {
		build := func() *ESM {
			e, err := NewWithOptions(cfg, c, WithSpace(pp.Serial{}), WithAudit(true))
			if err != nil {
				t.Error(err)
			}
			return e
		}
		held, every := build(), build()
		if held == nil || every == nil {
			return
		}
		every.radLand = nil
		var lag rms
		for i := 0; i < steps; i++ {
			if !held.Step() || !every.Step() {
				t.Errorf("clock exhausted at step %d", i)
				return
			}
			// What landStep has just read, in both models: the lag of the held
			// flux behind the fresh one, over every step of the run.
			held.forLand(func(_, cell int) { lag.add(held.Atm.GLW[cell] - every.Atm.GLW[cell]) })
		}
		// The run ends on a radiation step, so what is left between the two
		// models' fluxes there is the drift of the state they are diagnosed from.
		if !held.Clock.Due("ocn") {
			t.Errorf("step %d is not a radiation step", steps)
		}
		var skin, glw, temp, ps rms
		held.forLand(func(_, cell int) {
			skin.add(held.Atm.SST[cell] - every.Atm.SST[cell])
			glw.add(held.Atm.GLW[cell] - every.Atm.GLW[cell])
		})
		for i := range held.Atm.T {
			temp.add(held.Atm.T[i] - every.Atm.T[i])
		}
		for i := range held.Atm.Ps {
			ps.add(held.Atm.Ps[i] - every.Atm.Ps[i])
		}
		t.Logf("%d steps: land skin T rms %.3g max %.3g K; GLW at land readers rms %.3g W/m² (lag while held: rms %.3g max %.3g); T rms %.3g K; Ps rms %.3g Pa",
			steps, skin.value(), skin.max, glw.value(), lag.value(), lag.max, temp.value(), ps.value())
		for _, b := range []struct {
			name       string
			got, bound float64
		}{
			{"land skin temperature rms (K)", skin.value(), 0.02},
			{"land skin temperature max (K)", skin.max, 0.05},
			{"GLW at land readers rms (W/m²)", glw.value(), 0.05},
			{"held GLW lag at land readers rms (W/m²)", lag.value(), 1},
			{"held GLW lag at land readers max (W/m²)", lag.max, 5},
			{"atmosphere T rms (K)", temp.value(), 2e-3},
			{"Ps rms (Pa)", ps.value(), 0.2},
		} {
			if !(b.got <= b.bound) {
				t.Errorf("%s = %.3g exceeds the drift budget %.3g", b.name, b.got, b.bound)
			}
			if b.got == 0 {
				t.Errorf("%s is exactly 0: the twin is not holding anything", b.name)
			}
		}
		if err := held.Health(); err != nil {
			t.Error(err)
		}
		if s := held.Budget().Summary(); s.MaxHeatResid > 1e-10 || s.MaxFWResid > 1e-10 {
			t.Errorf("audit residuals %.3e/%.3e exceed the 1e-10 gate", s.MaxHeatResid, s.MaxFWResid)
		}
	})
}

// rms accumulates a root-mean-square and the largest magnitude.
type rms struct {
	sum2, max float64
	n         int
}

func (r *rms) add(d float64) {
	r.sum2 += d * d
	r.max = math.Max(r.max, math.Abs(d))
	r.n++
}

func (r *rms) value() float64 { return math.Sqrt(r.sum2 / float64(r.n)) }

// The radiation step is read from the registry, not inferred: on 25v10 at one
// rank a cold start diagnoses the 186 land-stepped columns on its first step,
// then every fifth step — the one before the ocean alarm rings — all 642, and
// nothing on the steps in between.
func TestRadiationColumnsCounter(t *testing.T) {
	cfg, err := ConfigForLabel("25v10")
	if err != nil {
		t.Fatal(err)
	}
	par.Run(1, func(c *par.Comm) {
		o := obs.New(0, nil)
		e, err := NewWithOptions(cfg, c, WithSpace(pp.Serial{}), WithObserver(o))
		if err != nil {
			t.Error(err)
			return
		}
		if nc, nl := e.Atm.Mesh.NCells(), len(e.Lnd.Cells); nc != 642 || nl != 186 {
			t.Errorf("25v10 has %d cells, %d land-stepped; the pinned count assumes 642 and 186", nc, nl)
		}
		ctr := o.Registry().Counter("atm.rad.columns")
		want := int64(0)
		for step := 1; step <= 15; step++ {
			e.Step()
			switch {
			case step == 1:
				want += 186
			case step%5 == 0:
				want += 642
			}
			if got := ctr.Value(); got != want {
				t.Fatalf("after step %d atm.rad.columns = %d, want %d", step, got, want)
			}
		}
	})
}
