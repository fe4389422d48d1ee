package core

import (
	"testing"
	"time"

	"repro/internal/par"
	"repro/internal/pario"
	"repro/internal/pp"
	"repro/internal/typhoon"
)

// The headline restart property: run A→B→C in one go, or run A→B, write a
// restart, load it into a fresh model, and run B→C — the final states must
// be bit-for-bit identical, including tracer-window flux accumulators and
// coupling-alarm phasing.
func TestRestartBitIdentical(t *testing.T) {
	const (
		stepsA = 23 // deliberately not a multiple of the ocean alarm period
		stepsB = 22
	)
	start := time.Date(2023, 7, 21, 0, 0, 0, 0, time.UTC)
	cfg, err := ConfigForLabel("25v10")
	if err != nil {
		t.Fatal(err)
	}

	snapshot := func(e *ESM) map[string][]float64 {
		out := map[string][]float64{
			"atm.ps": append([]float64(nil), e.Atm.Ps...),
			"atm.t":  append([]float64(nil), e.Atm.T...),
			"atm.u":  append([]float64(nil), e.Atm.U...),
			"ocn.t":  append([]float64(nil), e.Ocn.T...),
			"ocn.e":  append([]float64(nil), e.Ocn.Eta...),
			"ice.c":  append([]float64(nil), e.Ice.Conc...),
			"lnd.t":  append([]float64(nil), e.Lnd.TSoil...),
		}
		return out
	}

	// Uninterrupted reference run.
	var ref map[string][]float64
	par.Run(1, func(c *par.Comm) {
		e, err := NewWithOptions(cfg, c, WithInterval(start, start.Add(24*time.Hour)), WithSpace(pp.Serial{}))
		if err != nil {
			t.Fatal(err)
		}
		typhoon.Seed(e.Atm, typhoon.DoksuriSeed())
		for i := 0; i < stepsA+stepsB; i++ {
			e.Step()
		}
		ref = snapshot(e)
	})

	// Interrupted run with a checkpoint in the middle.
	dir := t.TempDir()
	par.Run(1, func(c *par.Comm) {
		e, err := NewWithOptions(cfg, c, WithInterval(start, start.Add(24*time.Hour)), WithSpace(pp.Serial{}))
		if err != nil {
			t.Fatal(err)
		}
		typhoon.Seed(e.Atm, typhoon.DoksuriSeed())
		for i := 0; i < stepsA; i++ {
			e.Step()
		}
		if err := e.WriteRestart(dir, 1); err != nil {
			t.Fatal(err)
		}
	})
	var got map[string][]float64
	par.Run(1, func(c *par.Comm) {
		e, err := NewWithOptions(cfg, c, WithInterval(start, start.Add(24*time.Hour)), WithSpace(pp.Serial{}))
		if err != nil {
			t.Fatal(err)
		}
		// Note: no vortex seeding here — the state comes from the file.
		if err := e.ReadRestart(dir, 1); err != nil {
			t.Fatal(err)
		}
		if e.CouplingSteps() != stepsA {
			t.Fatalf("restored coupling steps %d", e.CouplingSteps())
		}
		if e.RestartAt() != start.Add(stepsA*8*time.Minute) {
			t.Fatalf("restored clock %v", e.RestartAt())
		}
		for i := 0; i < stepsB; i++ {
			e.Step()
		}
		got = snapshot(e)
	})

	for name := range ref {
		if len(ref[name]) != len(got[name]) {
			t.Fatalf("%s: length mismatch", name)
		}
		for i := range ref[name] {
			if ref[name][i] != got[name][i] {
				t.Fatalf("%s[%d]: restart %v vs uninterrupted %v (not bit-identical)",
					name, i, got[name][i], ref[name][i])
			}
		}
	}
}

// Restart across different process counts: a checkpoint written by 1 rank
// restores onto 4 ranks and continues identically.
func TestRestartAcrossRankCounts(t *testing.T) {
	start := time.Date(2023, 7, 21, 0, 0, 0, 0, time.UTC)
	cfg, err := ConfigForLabel("25v10")
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	const stepsA, stepsB = 10, 8

	var ref []float64
	par.Run(1, func(c *par.Comm) {
		e, _ := NewWithOptions(cfg, c, WithInterval(start, start.Add(24*time.Hour)), WithSpace(pp.Serial{}))
		for i := 0; i < stepsA; i++ {
			e.Step()
		}
		if err := e.WriteRestart(dir, 1); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < stepsB; i++ {
			e.Step()
		}
		ref = e.Ocn.GatherSurface(e.Ocn.Eta)
	})

	var got []float64
	par.Run(4, func(c *par.Comm) {
		e, err := NewWithOptions(cfg, c, WithInterval(start, start.Add(24*time.Hour)), WithSpace(pp.Serial{}))
		if err != nil {
			t.Fatal(err)
		}
		if err := e.ReadRestart(dir, 1); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < stepsB; i++ {
			e.Step()
		}
		out := e.Ocn.GatherSurface(e.Ocn.Eta)
		if c.Rank() == 0 {
			got = out
		}
	})

	for i := range ref {
		if ref[i] != got[i] {
			t.Fatalf("eta[%d]: 1-rank %v vs restarted 4-rank %v", i, ref[i], got[i])
		}
	}
}

func TestRestartErrors(t *testing.T) {
	start := time.Date(2023, 7, 21, 0, 0, 0, 0, time.UTC)
	cfg, _ := ConfigForLabel("25v10")
	par.Run(1, func(c *par.Comm) {
		e, _ := NewWithOptions(cfg, c, WithInterval(start, start.Add(time.Hour)), WithSpace(pp.Serial{}))
		// Reading a nonexistent restart fails.
		if err := e.ReadRestart(t.TempDir(), 1); err == nil {
			t.Error("missing restart accepted")
		}
		// Reading into a used model fails.
		dir := t.TempDir()
		e.Step()
		if err := e.WriteRestart(dir, 1); err != nil {
			t.Fatal(err)
		}
		if err := e.ReadRestart(dir, 1); err == nil {
			t.Error("restart into non-fresh model accepted")
		}
	})
}

func TestWriteSnapshot(t *testing.T) {
	start := time.Date(2023, 7, 21, 0, 0, 0, 0, time.UTC)
	cfg, _ := ConfigForLabel("25v10")
	path := t.TempDir() + "/snap.bin"
	par.Run(2, func(c *par.Comm) {
		e, err := NewWithOptions(cfg, c, WithInterval(start, start.Add(time.Hour)), WithSpace(pp.Serial{}))
		if err != nil {
			t.Fatal(err)
		}
		e.Step()
		if err := e.WriteSnapshot(path); err != nil {
			t.Fatal(err)
		}
	})
	fields, err := pario.ReadGlobal([]string{path})
	if err != nil {
		t.Fatal(err)
	}
	g := cfg.OcnNX * cfg.OcnNY
	for name, wantLen := range map[string]int{
		"ocn.rossby": g, "ocn.ke": g, "ocn.sst": g, "ice.conc": g,
	} {
		if len(fields[name]) != wantLen {
			t.Errorf("%s: %d values, want %d", name, len(fields[name]), wantLen)
		}
	}
	nc := len(fields["atm.ps"])
	if nc == 0 || len(fields["atm.wind10m"]) != nc || len(fields["atm.loncell"]) != nc {
		t.Error("atmosphere snapshot fields inconsistent")
	}
	for _, v := range fields["atm.ps"] {
		if v < 8e4 || v > 1.1e5 {
			t.Fatalf("snapshot ps %v", v)
		}
	}
	for _, v := range fields["atm.cloud"] {
		if v < 0 || v > 1 {
			t.Fatalf("snapshot cloud %v", v)
		}
	}
}
