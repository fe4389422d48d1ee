package core

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/par"
	"repro/internal/pp"
)

// ownedAtmCells calls fn on every atmosphere cell this rank owns (all of
// them on 1 rank).
func ownedAtmCells(e *ESM, fn func(c int)) {
	if e.dec == nil {
		for c := 0; c < e.Atm.Mesh.NCells(); c++ {
			fn(c)
		}
		return
	}
	for _, r := range e.dec.OwnedRanges() {
		for c := r[0]; c < r[0]+r[1]; c++ {
			fn(c)
		}
	}
}

// radTrace runs the model and returns, per rank, every value of GSW/GLW at
// the moment a reader consumes it — the land-stepped cells after each step
// (landStep has just read them and nothing writes them before the next
// step), the owned cells before each step whose ocean alarm is due (what
// oceanImport is about to read) — followed by the final coupled state.
//
// forceAll is the reference: it drops the demand mask after assembly, so the
// atmosphere sweeps every column every step as it did before radiation
// became demand-driven. With restartAt > 0 the run checkpoints after that
// many steps, resumes in a freshly assembled model, and checks that the
// held GSW/GLW of the owned cells came back exactly as they were written.
func radTrace(t *testing.T, ranks int, sched Schedule, remap RemapMode, forceAll bool, steps, restartAt int) [][]float64 {
	t.Helper()
	cfg, err := ConfigForLabel("25v10")
	if err != nil {
		t.Fatal(err)
	}
	start := time.Date(2023, 7, 21, 0, 0, 0, 0, time.UTC)
	dir := t.TempDir()
	traces := make([][]float64, ranks)
	par.Run(ranks, func(c *par.Comm) {
		build := func() *ESM {
			e, err := NewWithOptions(cfg, c, WithInterval(start, start.Add(24*time.Hour)),
				WithSpace(pp.Serial{}), WithSchedule(sched), WithRemap(remap), WithAudit(true))
			if err != nil {
				t.Error(err)
				return nil
			}
			if forceAll {
				e.radEvery = nil
			}
			return e
		}
		e := build()
		if e == nil {
			return
		}
		var tr []float64
		for i := 0; i < steps; i++ {
			if restartAt > 0 && i == restartAt {
				if e.Clock.Due("ocn") {
					t.Errorf("step %d is an ocean-import step; the restart must fall inside a cycle", i)
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
				ownedAtmCells(e, func(cell int) {
					if fresh.Atm.GSW[cell] != e.Atm.GSW[cell] || fresh.Atm.GLW[cell] != e.Atm.GLW[cell] {
						t.Errorf("rank %d cell %d: held GSW/GLW %v/%v restored as %v/%v", c.Rank(), cell,
							e.Atm.GSW[cell], e.Atm.GLW[cell], fresh.Atm.GSW[cell], fresh.Atm.GLW[cell])
					}
				})
				e = fresh
			}
			if e.Clock.Due("ocn") {
				ownedAtmCells(e, func(cell int) { tr = append(tr, e.Atm.GSW[cell], e.Atm.GLW[cell]) })
			}
			if !e.Step() {
				t.Errorf("clock exhausted at step %d", i)
				return
			}
			e.forLandStepped(func(cell int) { tr = append(tr, e.Atm.GSW[cell], e.Atm.GLW[cell]) })
		}
		tr = append(tr, globalCoupledState(e)...)
		tr = append(tr, e.Ocn.T...)
		tr = append(tr, e.Ocn.S...)
		tr = append(tr, e.Ocn.Eta...)
		tr = append(tr, e.Ice.Conc...)
		tr = append(tr, e.Ice.Thick...)
		traces[c.Rank()] = tr
	})
	return traces
}

// The contract of demand-driven radiation: skipping the sweeps nothing reads
// changes no number. Against the same model forced to sweep every column
// every step, every prognostic and every GSW/GLW value a reader consumes is
// bit-identical — at 1, 2 and 4 ranks, under both schedules and both remaps,
// and across a checkpoint written in the middle of an ocean-coupling cycle,
// when the non-land columns hold a diagnosis up to four steps old.
func TestRadiationDemandBitForBit(t *testing.T) {
	const steps, restartAt = 12, 7 // imports before steps 0, 5, 10; restart two steps into a cycle
	counts := []int{1, 2, 4}
	if testing.Short() {
		counts = []int{1, 2}
	}
	for _, ranks := range counts {
		for _, sched := range []Schedule{ScheduleSeq, ScheduleConc} {
			for _, remap := range []RemapMode{RemapNN, RemapCons} {
				t.Run(fmt.Sprintf("ranks=%d/%v/%v", ranks, sched, remap), func(t *testing.T) {
					ref := radTrace(t, ranks, sched, remap, true, steps, 0)
					got := radTrace(t, ranks, sched, remap, false, steps, restartAt)
					for r := range ref {
						if len(ref[r]) == 0 || len(got[r]) != len(ref[r]) {
							t.Fatalf("rank %d: trace lengths %d (demand) vs %d (all)", r, len(got[r]), len(ref[r]))
						}
						for i := range ref[r] {
							if got[r][i] != ref[r][i] {
								t.Fatalf("rank %d: trace[%d] = %v demand-driven, %v sweeping all", r, i, got[r][i], ref[r][i])
							}
						}
					}
				})
			}
		}
	}
}

// The live fraction is read from the registry, not inferred: on 25v10 at one
// rank an ocean-coupling cycle of five steps diagnoses the 186 land-stepped
// columns four times and all 642 once.
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
		for cycle := 1; cycle <= 3; cycle++ {
			for i := 0; i < 5; i++ {
				e.Step()
			}
			if got, want := ctr.Value(), int64(cycle*(4*186+642)); got != want {
				t.Errorf("after %d cycles atm.rad.columns = %d, want %d", cycle, got, want)
			}
		}
	})
}
