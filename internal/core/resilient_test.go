package core

import (
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/fault"
	"repro/internal/obs"
	"repro/internal/par"
	"repro/internal/pp"
	"repro/internal/typhoon"
)

func resilientStart() time.Time { return time.Date(2023, 7, 21, 0, 0, 0, 0, time.UTC) }

func mkESM(t *testing.T, c *par.Comm, opts ...Option) func() (*ESM, error) {
	t.Helper()
	cfg, err := ConfigForLabel("25v10")
	if err != nil {
		t.Fatal(err)
	}
	start := resilientStart()
	opts = append([]Option{WithInterval(start, start.Add(24*time.Hour)), WithSpace(pp.Serial{})}, opts...)
	return func() (*ESM, error) {
		e, err := NewWithOptions(cfg, c, opts...)
		if err != nil {
			return nil, err
		}
		typhoon.Seed(e.Atm, typhoon.DoksuriSeed())
		return e, nil
	}
}

func readSet(t *testing.T, dir string, nGroups int) map[string][]byte {
	t.Helper()
	out := make(map[string][]byte)
	for g := 0; g < nGroups; g++ {
		name := filepath.Join(dir, "part-"+string(rune('0'+g))+".bin")
		b, err := os.ReadFile(name)
		if err != nil {
			t.Fatal(err)
		}
		out[filepath.Base(name)] = b
	}
	return out
}

// The acceptance property: with a seeded plan injecting a checkpoint I/O
// error and a mid-run NaN, RunResilient completes the run and its final
// restart set is byte-identical to a fault-free run's.
func TestRunResilientRecoversBitForBit(t *testing.T) {
	const steps = 30
	days := float64(steps) / 180 // 180 atm couplings per simulated day

	// Fault-free reference.
	refDir := t.TempDir()
	par.Run(1, func(c *par.Comm) {
		e, err := mkESM(t, c)()
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < steps; i++ {
			e.Step()
		}
		if err := e.WriteRestart(refDir, 1); err != nil {
			t.Fatal(err)
		}
	})

	// Faulted resilient run: the 2nd checkpoint write (step 16) fails with
	// an I/O error, which the run learns at the step-24 boundary and answers
	// by resuming from step 8; then a NaN lands in the ocean temperature at
	// the 29th step call (step 13 of the replay) and is answered the same
	// way.
	plan, err := fault.Parse("io-error@pario.write:2;nan@esm.step:29", 42)
	if err != nil {
		t.Fatal(err)
	}
	fired := obs.New(0, nil)
	plan.SetObserver(fired)
	fault.Arm(plan)
	defer fault.Disarm()
	ckDir := filepath.Join(t.TempDir(), "ck")
	gotDir := t.TempDir()
	par.Run(1, func(c *par.Comm) {
		e, rep, err := RunResilient(mkESM(t, c), ResilientConfig{
			Days: days, CheckpointEvery: 8, MaxRetries: 5,
			Dir: ckDir, Backoff: time.Millisecond,
		})
		if err != nil {
			t.Fatalf("resilient run failed: %v (recoveries %+v)", err, rep.Recoveries)
		}
		if rep.Steps != steps {
			t.Fatalf("completed %d steps, want %d", rep.Steps, steps)
		}
		if len(rep.Recoveries) != 2 {
			t.Fatalf("expected 2 recoveries, got %+v", rep.Recoveries)
		}
		if rep.Recoveries[0].Resumed != 8 || rep.Recoveries[1].Resumed != 8 {
			t.Errorf("recoveries resumed from %+v, want step 8", rep.Recoveries)
		}
		fault.Disarm() // the final write below must be clean
		if err := e.WriteRestart(gotDir, 1); err != nil {
			t.Fatal(err)
		}
	})
	if io, nan := fired.Registry().Counter("fault.injected.io-error").Value(),
		fired.Registry().Counter("fault.injected.nan").Value(); io != 1 || nan != 1 {
		t.Errorf("fault counts: io-error %d, nan %d", io, nan)
	}

	ref, got := readSet(t, refDir, 1), readSet(t, gotDir, 1)
	for name := range ref {
		if string(ref[name]) != string(got[name]) {
			t.Fatalf("%s differs from the fault-free run (not bit-identical)", name)
		}
	}
}

// A bit-flipped checkpoint must be caught by the v2 checksums at restore
// time and answered by falling back to the initial state — still finishing
// bit-for-bit.
func TestRunResilientSurvivesCorruptCheckpoint(t *testing.T) {
	const steps = 20
	days := float64(steps) / 180

	refDir := t.TempDir()
	par.Run(1, func(c *par.Comm) {
		e, _ := mkESM(t, c)()
		for i := 0; i < steps; i++ {
			e.Step()
		}
		if err := e.WriteRestart(refDir, 1); err != nil {
			t.Fatal(err)
		}
	})

	// The very first checkpoint is written with a flipped bit; the NaN at
	// step 12 then forces a rollback onto that corrupt set.
	plan, err := fault.Parse("bitflip@pario.write:1;nan@esm.step:12", 7)
	if err != nil {
		t.Fatal(err)
	}
	fault.Arm(plan)
	defer fault.Disarm()
	ckDir := filepath.Join(t.TempDir(), "ck")
	gotDir := t.TempDir()
	par.Run(1, func(c *par.Comm) {
		e, rep, err := RunResilient(mkESM(t, c), ResilientConfig{
			Days: days, CheckpointEvery: 8, MaxRetries: 5,
			Dir: ckDir, Backoff: time.Millisecond,
		})
		if err != nil {
			t.Fatalf("resilient run failed: %v (recoveries %+v)", err, rep.Recoveries)
		}
		if len(rep.Recoveries) == 0 || rep.Recoveries[0].Resumed != 0 {
			t.Fatalf("expected a restart from scratch, got %+v", rep.Recoveries)
		}
		fault.Disarm()
		if err := e.WriteRestart(gotDir, 1); err != nil {
			t.Fatal(err)
		}
	})

	ref, got := readSet(t, refDir, 1), readSet(t, gotDir, 1)
	for name := range ref {
		if string(ref[name]) != string(got[name]) {
			t.Fatalf("%s differs from the fault-free run after corrupt-checkpoint fallback", name)
		}
	}
}

// Two ranks: the collective agreement paths — a checkpoint I/O error on the
// single group leader must roll back BOTH ranks, and the run still matches a
// fault-free 2-rank run.
func TestRunResilientTwoRanks(t *testing.T) {
	const steps = 16
	days := float64(steps) / 180

	refDir := t.TempDir()
	par.Run(2, func(c *par.Comm) {
		e, err := mkESM(t, c)()
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < steps; i++ {
			e.Step()
		}
		if err := e.WriteRestart(refDir, 1); err != nil {
			t.Fatal(err)
		}
	})

	plan, err := fault.Parse("io-error@pario.write:2", 3)
	if err != nil {
		t.Fatal(err)
	}
	fault.Arm(plan)
	defer fault.Disarm()
	ckDir := filepath.Join(t.TempDir(), "ck")
	gotDir := t.TempDir()
	par.Run(2, func(c *par.Comm) {
		e, rep, err := RunResilient(mkESM(t, c), ResilientConfig{
			Days: days, CheckpointEvery: 6, MaxRetries: 3,
			Dir: ckDir, Backoff: time.Millisecond,
		})
		if err != nil {
			t.Fatalf("rank %d: %v", c.Rank(), err)
		}
		if len(rep.Recoveries) != 1 {
			t.Fatalf("rank %d: recoveries %+v", c.Rank(), rep.Recoveries)
		}
		if c.Rank() == 0 {
			fault.Disarm()
		}
		c.Barrier()
		if err := e.WriteRestart(gotDir, 1); err != nil {
			t.Fatal(err)
		}
	})

	ref, got := readSet(t, refDir, 1), readSet(t, gotDir, 1)
	for name := range ref {
		if string(ref[name]) != string(got[name]) {
			t.Fatalf("%s differs from the fault-free 2-rank run", name)
		}
	}
}

// When every retry hits the same fault, the driver gives up after
// MaxRetries instead of looping forever.
func TestRunResilientGivesUp(t *testing.T) {
	plan, err := fault.New(1, fault.Injection{
		Kind: fault.NaN, Site: "esm.step", Hit: 1, Rank: fault.AnyRank, Repeat: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	fault.Arm(plan)
	defer fault.Disarm()
	par.Run(1, func(c *par.Comm) {
		_, rep, err := RunResilient(mkESM(t, c), ResilientConfig{
			Days: 0.1, CheckpointEvery: 4, MaxRetries: 2,
			Dir: filepath.Join(t.TempDir(), "ck"), Backoff: time.Millisecond,
		})
		if err == nil {
			t.Fatal("permanent fault not surfaced")
		}
		if len(rep.Recoveries) != 3 {
			t.Errorf("recoveries %+v, want MaxRetries+1 = 3", rep.Recoveries)
		}
	})
}

// The chosen backoff is surfaced on the RecoveryEvent, lands inside
// [base/2, base] of the doubled-per-attempt base, and is deterministic in
// ResilientConfig.Seed — two runs with the same seed sleep identically, so
// the ranks stay collectively in step.
func TestRunResilientJitteredBackoff(t *testing.T) {
	const base = 4 * time.Millisecond
	run := func(seed int64) time.Duration {
		plan, err := fault.Parse("nan@esm.step:5", 9)
		if err != nil {
			t.Fatal(err)
		}
		fault.Arm(plan)
		defer fault.Disarm()
		var got time.Duration
		par.Run(1, func(c *par.Comm) {
			_, rep, err := RunResilient(mkESM(t, c), ResilientConfig{
				Days: 8.0 / 180, CheckpointEvery: 4, MaxRetries: 3,
				Dir: filepath.Join(t.TempDir(), "ck"), Backoff: base, Seed: seed,
			})
			if err != nil {
				t.Fatalf("resilient run failed: %v", err)
			}
			if len(rep.Recoveries) != 1 {
				t.Fatalf("recoveries %+v, want 1", rep.Recoveries)
			}
			got = rep.Recoveries[0].Backoff
		})
		return got
	}
	d1 := run(42)
	if d1 < base/2 || d1 > base {
		t.Fatalf("attempt-1 backoff %v outside [%v, %v]", d1, base/2, base)
	}
	if d2 := run(42); d2 != d1 {
		t.Fatalf("same seed drew different delays: %v vs %v", d1, d2)
	}
}

// healthClear is the fast path of Health: it must never clear a state
// healthDiagnose would flag, and must clear a healthy model (or Health would
// pay for both scans every step). Each guarded field is poked with values
// on and just past its bounds, NaN, ±Inf and -0, at its first, last and a
// middle element; the scans themselves at every position of short arrays
// of either parity.
func TestHealthClearImpliesDiagnoseClean(t *testing.T) {
	for n := 1; n <= 5; n++ {
		for i := 0; i < n; i++ {
			for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
				vals := make([]float64, n)
				vals[i] = bad
				if allFinite(vals) || within(vals, -1, 1) {
					t.Errorf("%v at %d of %d values passed the scans", bad, i, n)
				}
			}
		}
	}
	par.Run(1, func(c *par.Comm) {
		e, err := mkESM(t, c)()
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 3; i++ {
			e.Step()
		}
		if !e.healthClear() {
			t.Fatalf("healthy model not cleared by the fast path: %v", e.healthDiagnose())
		}
		edgeWind := healthMaxWind / e.Atm.WindSpeedBound()
		up, down := func(v float64) float64 { return math.Nextafter(v, math.Inf(1)) }, func(v float64) float64 { return math.Nextafter(v, math.Inf(-1)) }
		bounds := func(lo, hi float64) []float64 { return []float64{lo, hi, down(lo), up(hi)} }
		fields := []struct {
			name  string
			vals  []float64
			edges []float64
		}{
			{"atm.ps", e.Atm.Ps, bounds(healthMinPs, healthMaxPs)},
			{"atm.t", e.Atm.T, bounds(math.SmallestNonzeroFloat64, healthMaxTemp)},
			{"atm.qv", e.Atm.Qv, nil},
			{"atm.u", e.Atm.U, bounds(-edgeWind, edgeWind)},
			{"ocn.u", e.Ocn.U, bounds(-healthMaxCur, healthMaxCur)},
			{"ocn.v", e.Ocn.V, nil},
			{"ocn.t", e.Ocn.T, nil},
			{"ocn.s", e.Ocn.S, nil},
			{"ocn.eta", e.Ocn.Eta, bounds(-healthMaxEta, healthMaxEta)},
			{"ice.conc", e.Ice.Conc, bounds(-1e-9, 1+1e-9)},
			{"ice.thick", e.Ice.Thick, nil},
			{"lnd.tsoil", e.Lnd.TSoil, nil},
		}
		for _, f := range fields {
			pokes := append([]float64{math.NaN(), math.Inf(1), math.Inf(-1), math.Copysign(0, -1), 3 * healthMaxWind}, f.edges...)
			for _, i := range []int{0, len(f.vals) / 2, len(f.vals) - 1} {
				for _, v := range pokes {
					old := f.vals[i]
					f.vals[i] = v
					clear, diag := e.healthClear(), e.healthDiagnose()
					f.vals[i] = old
					if clear && diag != nil {
						t.Errorf("%s[%d] = %v: fast path cleared a state the scan flags: %v", f.name, i, v, diag)
					}
					if math.IsNaN(v) && clear {
						t.Errorf("%s[%d] = NaN cleared", f.name, i)
					}
				}
			}
		}
	})
}

// Health catches each guardrail class with a per-component message.
func TestHealthGuardrails(t *testing.T) {
	par.Run(1, func(c *par.Comm) {
		mk := mkESM(t, c)
		cases := []struct {
			name   string
			poke   func(e *ESM)
			within string
		}{
			{"clean", func(e *ESM) {}, ""},
			{"atm nan", func(e *ESM) { e.Atm.T[0] = math.NaN() }, "atm health"},
			{"atm pressure", func(e *ESM) { e.Atm.Ps[0] = 1e3 }, "atm health"},
			{"ocn nan", func(e *ESM) { e.Ocn.T[0] = math.NaN() }, "ocn health"},
			{"ocn current", func(e *ESM) { e.Ocn.U[0] = 80 }, "CFL guardrail"},
			{"ice conc", func(e *ESM) { e.Ice.Conc[0] = 2.5 }, "ice health"},
		}
		for _, tc := range cases {
			e, err := mk()
			if err != nil {
				t.Fatal(err)
			}
			tc.poke(e)
			err = e.Health()
			if tc.within == "" {
				if err != nil {
					t.Errorf("%s: %v", tc.name, err)
				}
				continue
			}
			if err == nil {
				t.Errorf("%s: not detected", tc.name)
			} else if !strings.Contains(err.Error(), tc.within) {
				t.Errorf("%s: error %q lacks %q", tc.name, err, tc.within)
			}
		}
	})
}
