package core

import (
	"bytes"
	"fmt"
	"math"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/fault"
	"repro/internal/par"
	"repro/internal/statestore"
)

// The capture/commit protocol of RunResilient: a checkpoint is captured on
// the step and committed on a writer goroutine, its verdict taken at the
// next boundary, before a rollback, or before the run returns. Every test
// runs on 1 and 2 ranks under both schedules.

func forEachLayout(t *testing.T, f func(t *testing.T, ranks int, sched Schedule)) {
	for _, ranks := range []int{1, 2} {
		for _, sched := range []Schedule{ScheduleSeq, ScheduleConc} {
			t.Run(fmt.Sprintf("ranks=%d/%v", ranks, sched), func(t *testing.T) { f(t, ranks, sched) })
		}
	}
}

// twin steps a fault-free model n steps without checkpoints, writes its
// restart set into dir, and returns its assembled global state.
func twin(t *testing.T, ranks int, sched Schedule, n int, dir string) []float64 {
	t.Helper()
	var state []float64
	par.Run(ranks, func(c *par.Comm) {
		e, err := mkESM(t, c, WithSchedule(sched))()
		if err != nil {
			t.Error(err)
			return
		}
		for i := 0; i < n; i++ {
			e.Step()
		}
		if err := e.WriteRestart(dir, 1); err != nil {
			t.Error(err)
		}
		if st := globalCoupledState(e); c.Rank() == 0 {
			state = st
		}
	})
	return state
}

// resilient runs RunResilient for n steps under plan and returns rank 0's
// report and assembled final state.
func resilient(t *testing.T, ranks int, sched Schedule, n, every int, plan, dir string, hook func(*ESM)) (*ResilientReport, []float64) {
	t.Helper()
	p, err := fault.Parse(plan, 5)
	if err != nil {
		t.Fatal(err)
	}
	fault.Arm(p)
	defer fault.Disarm()
	var rep *ResilientReport
	var state []float64
	par.Run(ranks, func(c *par.Comm) {
		e, r, err := RunResilient(mkESM(t, c, WithSchedule(sched)), ResilientConfig{
			Days: float64(n) / 180, CheckpointEvery: every, MaxRetries: 3,
			Dir: dir, Backoff: time.Millisecond, OnCheckpoint: hook,
		})
		if err != nil {
			t.Errorf("rank %d: %v (recoveries %+v)", c.Rank(), err, r.Recoveries)
			return
		}
		if st := globalCoupledState(e); c.Rank() == 0 {
			rep, state = r, st
		}
	})
	return rep, state
}

func sameState(t *testing.T, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("state has %d values, fault-free twin %d", len(got), len(want))
	}
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("state[%d] = %v, fault-free twin %v", i, got[i], want[i])
		}
	}
}

func sameSet(t *testing.T, gotDir, wantDir string) {
	t.Helper()
	got, want := readSet(t, gotDir, 1), readSet(t, wantDir, 1)
	for name := range want {
		if !bytes.Equal(got[name], want[name]) {
			t.Fatalf("%s of the run's final committed set differs from the twin's", name)
		}
	}
}

// A commit that fails after its capture is rolled back when its verdict is
// taken: at the next boundary mid-run, or at the drain when it held the
// run's last step. Either way the run resumes from the previous committed
// set, ends bit-for-bit equal to the fault-free run, and leaves the final
// set committed.
func TestRunResilientCommitFailsAfterCapture(t *testing.T) {
	const steps, every = 6, 2
	forEachLayout(t, func(t *testing.T, ranks int, sched Schedule) {
		refDir := t.TempDir()
		ref := twin(t, ranks, sched, steps, refDir)
		for _, tc := range []struct {
			name, plan   string
			step, resume int
		}{
			{"next boundary", "io-error@pario.write:2", 6, 2}, // the step-4 write
			{"final drain", "io-error@pario.write:3", 6, 4},   // the step-6 write
		} {
			dir := filepath.Join(t.TempDir(), "ck")
			rep, state := resilient(t, ranks, sched, steps, every, tc.plan, dir, nil)
			if rep == nil {
				return
			}
			if len(rep.Recoveries) != 1 || rep.Recoveries[0].Step != tc.step || rep.Recoveries[0].Resumed != tc.resume ||
				!strings.Contains(rep.Recoveries[0].Reason, "injected io-error at pario.write") {
				t.Fatalf("%s: recoveries %+v, want one at step %d resuming from %d", tc.name, rep.Recoveries, tc.step, tc.resume)
			}
			sameState(t, state, ref)
			sameSet(t, dir, refDir)
		}
	})
}

// A NaN step while a write is still in flight (the write stalled on the
// writer goroutine) waits for that write first: it commits, so the run
// resumes from its step rather than from scratch.
func TestRunResilientNaNWhileWriteInFlight(t *testing.T) {
	const steps, every = 4, 2
	forEachLayout(t, func(t *testing.T, ranks int, sched Schedule) {
		refDir := t.TempDir()
		ref := twin(t, ranks, sched, steps, refDir)
		dir := filepath.Join(t.TempDir(), "ck")
		rep, state := resilient(t, ranks, sched, steps, every, "stall@pario.write:1:delay=200ms;nan@esm.step:3", dir, nil)
		if rep == nil {
			return
		}
		if len(rep.Recoveries) != 1 || rep.Recoveries[0].Step != 3 || rep.Recoveries[0].Resumed != 2 {
			t.Fatalf("recoveries %+v, want one at step 3 resuming from 2", rep.Recoveries)
		}
		if rep.Checkpoints != 2 {
			t.Errorf("%d commits confirmed, want 2 (steps 2 and 4)", rep.Checkpoints)
		}
		sameState(t, state, ref)
		sameSet(t, dir, refDir)
	})
}

// OnCheckpoint runs right after the capture, so it sees exactly the
// checkpointed state — on first pass and on the replay after a rollback
// alike — not a later one. The step-2 write fails, so the run learns it at
// step 4, restarts from scratch and replays step 2.
func TestRunResilientOnCheckpointSeesCapture(t *testing.T) {
	const steps, every = 6, 2
	snapshots := func(t *testing.T, ranks int, sched Schedule, run func(c *par.Comm, record func(*ESM))) map[int][]statestore.Snapshot {
		got := map[int][]statestore.Snapshot{}
		par.Run(ranks, func(c *par.Comm) {
			run(c, func(e *ESM) {
				if snap, ok := e.CaptureServeSnapshot(); ok {
					got[snap.Step] = append(got[snap.Step], snap)
				}
			})
		})
		return got
	}
	forEachLayout(t, func(t *testing.T, ranks int, sched Schedule) {
		want := snapshots(t, ranks, sched, func(c *par.Comm, record func(*ESM)) {
			e, err := mkESM(t, c, WithSchedule(sched))()
			if err != nil {
				t.Error(err)
				return
			}
			for i := 1; i <= steps; i++ {
				e.Step()
				if i%every == 0 {
					record(e)
				}
			}
		})
		plan, err := fault.Parse("io-error@pario.write:1", 5)
		if err != nil {
			t.Fatal(err)
		}
		fault.Arm(plan)
		defer fault.Disarm()
		dir := filepath.Join(t.TempDir(), "ck")
		got := snapshots(t, ranks, sched, func(c *par.Comm, record func(*ESM)) {
			if _, _, err := RunResilient(mkESM(t, c, WithSchedule(sched)), ResilientConfig{
				Days: steps / 180.0, CheckpointEvery: every, MaxRetries: 3,
				Dir: dir, Backoff: time.Millisecond, OnCheckpoint: record,
			}); err != nil {
				t.Error(err)
			}
		})
		if n := len(got[2]); n != 2 {
			t.Fatalf("step 2 seen %d times, want 2", n)
		}
		for step, snaps := range got {
			for _, s := range snaps {
				for fi, f := range s.Fields {
					w := want[step][0].Fields[fi]
					for i := range w.Data {
						if math.Float64bits(f.Data[i]) != math.Float64bits(w.Data[i]) {
							t.Fatalf("step %d: %s[%d] = %v in OnCheckpoint, twin %v", step, f.Name, i, f.Data[i], w.Data[i])
						}
					}
				}
			}
		}
	})
}

// No goroutine outlives RunResilient, whether it succeeds, gives up, or
// fails to rebuild a model. In each case a write is stalled in flight when
// the run ends or its last fault strikes (the final write, or the one the
// NaN at step 3 overtakes), so every return path meets a busy writer.
func TestRunResilientLeavesNoGoroutines(t *testing.T) {
	forEachLayout(t, func(t *testing.T, ranks int, sched Schedule) {
		for _, tc := range []struct {
			name, plan string
			failMk     bool // the rollback's rebuild fails
			retries    int
			wantErr    string
		}{
			{"success", "stall@pario.write:3:delay=200ms", false, 2, ""},
			{"give-up", "stall@pario.write:1:delay=200ms;nan@esm.step:3", false, 0, "giving up"},
			{"rebuild error", "stall@pario.write:1:delay=200ms;nan@esm.step:3", true, 2, "rebuilding model"},
		} {
			plan, err := fault.Parse(tc.plan, 5)
			if err != nil {
				t.Fatal(err)
			}
			dir := filepath.Join(t.TempDir(), "ck")
			before := runtime.NumGoroutine()
			fault.Arm(plan)
			par.Run(ranks, func(c *par.Comm) {
				mk, calls := mkESM(t, c, WithSchedule(sched)), 0
				_, _, err := RunResilient(func() (*ESM, error) {
					if calls++; tc.failMk && calls > 1 {
						return nil, fmt.Errorf("no model")
					}
					return mk()
				}, ResilientConfig{
					Days: 6.0 / 180, CheckpointEvery: 2, MaxRetries: tc.retries,
					Dir: dir, Backoff: time.Millisecond,
				})
				if tc.wantErr == "" && err != nil || tc.wantErr != "" && (err == nil || !strings.Contains(err.Error(), tc.wantErr)) {
					t.Errorf("%s: rank %d returned %v, want %q", tc.name, c.Rank(), err, tc.wantErr)
				}
			})
			fault.Disarm()
			deadline := time.Now().Add(100 * time.Millisecond)
			for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
				time.Sleep(time.Millisecond)
			}
			if n := runtime.NumGoroutine(); n > before {
				t.Errorf("%s: %d goroutines after the run, %d before", tc.name, n, before)
			}
		}
	})
}
