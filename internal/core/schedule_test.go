package core

import (
	"testing"

	"repro/internal/coupler"
	"repro/internal/obs"
	"repro/internal/par"
	"repro/internal/pp"
)

func TestParseSchedule(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want Schedule
	}{{"seq", ScheduleSeq}, {"conc", ScheduleConc}} {
		got, err := ParseSchedule(tc.in)
		if err != nil || got != tc.want {
			t.Errorf("ParseSchedule(%q) = %v, %v", tc.in, got, err)
		}
		if got.String() != tc.in {
			t.Errorf("%v.String() = %q, want %q", got, got.String(), tc.in)
		}
	}
	if _, err := ParseSchedule("overlapped"); err == nil {
		t.Error("unknown schedule accepted")
	}
}

// snapshotState flattens every prognostic and exchanged field of the
// coupled model into one slice — the complete state the bit-for-bit
// comparison between schedules must agree on.
func snapshotState(e *ESM) []float64 {
	var s []float64
	for _, f := range [][]float64{
		e.Ocn.T, e.Ocn.S, e.Ocn.U, e.Ocn.V, e.Ocn.Eta, e.Ocn.Ubar, e.Ocn.Vbar,
		e.Atm.U, e.Atm.T, e.Atm.Qv, e.Atm.Ps, e.Atm.SST, e.Atm.IceFrac, e.Atm.Precip,
		e.Ice.Conc, e.Ice.Thick,
		e.Lnd.TSoil, e.Lnd.Bucket,
	} {
		s = append(s, f...)
	}
	return s
}

// runScheduleSteps advances a fresh 2-rank model `steps` base steps under
// the schedule and returns each rank's state snapshot.
func runScheduleSteps(t *testing.T, sched Schedule, steps int) [][]float64 {
	t.Helper()
	cfg, err := ConfigForLabel("25v10")
	if err != nil {
		t.Fatal(err)
	}
	snaps := make([][]float64, 2)
	par.Run(2, func(c *par.Comm) {
		e, err := NewWithOptions(cfg, c, WithSpace(pp.Serial{}), WithSchedule(sched))
		if err != nil {
			t.Error(err)
			return
		}
		for i := 0; i < steps; i++ {
			if !e.Step() {
				t.Errorf("clock exhausted at step %d", i)
				return
			}
		}
		snaps[c.Rank()] = snapshotState(e)
	})
	return snaps
}

// The concurrent schedule must reproduce the sequential schedule
// bit-for-bit on every rank: the two component groups exchange nothing
// between the import and export barriers, and the broadcast atmosphere is
// the same state the redundant computation would produce.
func TestConcSeqBitForBit(t *testing.T) {
	const steps = 20 // four ocean couplings, twenty atmosphere couplings
	seq := runScheduleSteps(t, ScheduleSeq, steps)
	conc := runScheduleSteps(t, ScheduleConc, steps)
	for rank := range seq {
		if len(seq[rank]) == 0 || len(conc[rank]) == 0 {
			t.Fatalf("rank %d: missing snapshot", rank)
		}
		if len(seq[rank]) != len(conc[rank]) {
			t.Fatalf("rank %d: snapshot sizes differ: %d vs %d", rank, len(seq[rank]), len(conc[rank]))
		}
		for i := range seq[rank] {
			if seq[rank][i] != conc[rank][i] {
				t.Errorf("rank %d: state[%d] differs: seq %v, conc %v",
					rank, i, seq[rank][i], conc[rank][i])
				break
			}
		}
	}
}

// Race-detector stress lap: the concurrent schedule's ocean goroutine runs
// halo point-to-point traffic while the driver runs the atmosphere's halo
// exchanges, and a P2P rearrangement exercises the persistent-buffer path
// between steps. Run under -race by `make race`.
func TestConcScheduleRaceStress(t *testing.T) {
	cfg, err := ConfigForLabel("25v10")
	if err != nil {
		t.Fatal(err)
	}
	const p = 2
	n := cfg.OcnNX * cfg.OcnNY
	src, err := coupler.OfflineGSMap(func(gi int) int {
		if gi < n/p {
			return 0
		}
		return 1
	}, n, p)
	if err != nil {
		t.Fatal(err)
	}
	dst, err := coupler.OfflineGSMap(func(gi int) int { return gi % p }, n, p)
	if err != nil {
		t.Fatal(err)
	}
	par.Run(p, func(c *par.Comm) {
		o := obs.New(c.Rank(), nil)
		e, err := NewWithOptions(cfg, c, WithSpace(pp.Serial{}), WithSchedule(ScheduleConc), WithObserver(o))
		if err != nil {
			t.Error(err)
			return
		}
		r, err := coupler.BuildRouter(c, src, dst)
		if err != nil {
			t.Error(err)
			return
		}
		sv, _ := coupler.NewAttrVect([]string{"sst"}, len(src.LocalIndices(c.Rank())))
		dv, _ := coupler.NewAttrVect([]string{"sst"}, len(dst.LocalIndices(c.Rank())))
		for i := 0; i < 12; i++ {
			if !e.Step() {
				t.Errorf("clock exhausted at step %d", i)
				return
			}
			copy(sv.MustField("sst"), e.Atm.SST)
			if err := coupler.RearrangeInto(c, r, sv, dv, coupler.ModeP2P, nil); err != nil {
				t.Error(err)
				return
			}
		}
		if f := o.Registry().Gauge("cpl.overlap.frac").Value(); f <= 0 || f > 1 {
			t.Errorf("overlap fraction %v under the concurrent schedule, want in (0, 1]", f)
		}
	})
}
