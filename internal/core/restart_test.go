package core

import (
	"fmt"
	"maps"
	"math"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/fault"
	"repro/internal/grid"
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
		if e.Clock.Current != start.Add(stepsA*8*time.Minute) {
			t.Fatalf("restored clock %v", e.Clock.Current)
		}
		// The ice's SST is the slice bound at assembly: the restart must
		// have copied into Ocn.T, not replaced it.
		if &e.Ice.Forcing.OcnT[0] != &e.Ocn.T[0] {
			t.Fatal("after the restart the ice's SST reads another array than Ocn.T")
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
		ref = e.Ocn.B.GatherGlobal(e.Ocn.Eta)
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
		out := e.Ocn.B.GatherGlobal(e.Ocn.Eta)
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
		// A set that lacks a field the model reads is refused by the
		// field's name. The flux accumulators may go missing as a pair (a
		// checkpoint between tracer steps); one alone is named.
		global, err := pario.ReadGlobal(pario.SubfilePaths(dir, 1))
		if err != nil {
			t.Fatal(err)
		}
		fresh, _ := NewWithOptions(cfg, c, WithInterval(start, start.Add(time.Hour)), WithSpace(pp.Serial{}))
		for name := range global {
			if name == atmFluxEdgeField || name == "atm.fluxdps" {
				continue
			}
			lacking := maps.Clone(global)
			delete(lacking, name)
			err := fresh.restore(lacking)
			if err == nil || !strings.Contains(err.Error(), fmt.Sprintf("%q", name)) {
				t.Errorf("set without %s: restore returned %v, want an error naming it", name, err)
			}
		}
		for _, name := range []string{atmFluxEdgeField, "atm.fluxdps"} {
			if _, ok := global[name]; !ok {
				t.Fatalf("the set holds no %s", name)
			}
			lacking := maps.Clone(global)
			delete(lacking, name)
			err := fresh.restore(lacking)
			if err == nil || !strings.Contains(err.Error(), fmt.Sprintf("%q", name)) {
				t.Errorf("set without %s: restore returned %v, want an error naming it", name, err)
			}
		}
	})
}

// A restart set written before ten fields were retired as state no later
// step reads — today's set plus those fields at their global lengths —
// restores to the state, bit for bit, of the set without them, and steps on
// identically: the retired fields are ignored, whatever they hold.
func TestRetiredCheckpointFieldsIgnored(t *testing.T) {
	start := time.Date(2023, 7, 21, 0, 0, 0, 0, time.UTC)
	cfg, _ := ConfigForLabel("25v10")
	nc64, _, _ := grid.IcosCounts(cfg.AtmLevel)
	nc, n2 := int(nc64), cfg.OcnNX*cfg.OcnNY
	retired := map[string]int{
		"atm.taux": nc, "atm.tauy": nc, "atm.shf": nc, "atm.lhf": nc,
		"ocn.taux": n2, "ocn.tauy": n2, "ocn.qheat": n2, "ocn.fw": n2,
		"sfc.sstglobal": n2, "sfc.iceglobal": n2,
	}
	par.Run(1, func(c *par.Comm) {
		mk := func() *ESM {
			e, err := NewWithOptions(cfg, c, WithInterval(start, start.Add(24*time.Hour)), WithSpace(pp.Serial{}))
			if err != nil {
				t.Fatal(err)
			}
			return e
		}
		e := mk()
		for i := 0; i < 7; i++ {
			e.Step()
		}
		dir, old := t.TempDir(), t.TempDir()
		if err := e.WriteRestart(dir, 1); err != nil {
			t.Fatal(err)
		}
		global, err := pario.ReadGlobal(pario.SubfilePaths(dir, 1))
		if err != nil {
			t.Fatal(err)
		}
		var fields []pario.Field
		for name, data := range global {
			fields = append(fields, pario.Field{Name: name, Global: len(data), Data: data})
		}
		for name, n := range retired {
			if _, ok := global[name]; ok {
				t.Fatalf("today's set writes retired field %s", name)
			}
			junk := make([]float64, n)
			for i := range junk {
				junk[i] = math.NaN()
				if i%2 == 1 {
					junk[i] = 1e30 * float64(i)
				}
			}
			fields = append(fields, pario.Field{Name: name, Global: n, Data: junk})
		}
		if err := pario.WriteSubfiles(c, old, 1, fields); err != nil {
			t.Fatal(err)
		}

		want, got := mk(), mk()
		if err := want.ReadRestart(dir, 1); err != nil {
			t.Fatal(err)
		}
		if err := got.ReadRestart(old, 1); err != nil {
			t.Fatal(err)
		}
		for i := 0; i <= 5; i++ {
			if i > 0 {
				want.Step()
				got.Step()
			}
			if h, w := restartHash(t, got), restartHash(t, want); h != w {
				t.Fatalf("%d steps after restoring: state hash %s with the retired fields, %s without", i, h, w)
			}
			for _, f := range [][2][]float64{
				{got.Ocn.TauX, want.Ocn.TauX}, {got.Ocn.TauY, want.Ocn.TauY},
				{got.Ocn.QHeat, want.Ocn.QHeat}, {got.Ocn.FWFlux, want.Ocn.FWFlux},
			} {
				if !slices.Equal(f[0], f[1]) {
					t.Fatalf("%d steps after restoring: the ocean's surface forcing differs with the retired fields", i)
				}
			}
		}
	})
}

// shortenFluxEdge rewrites a 1-rank restart set with its last atm.fluxedge
// value dropped: a well-formed file (checksums and all) whose accumulator no
// longer fits the model it is read into.
func shortenFluxEdge(c *par.Comm, dir string) error {
	return rewriteRestart(c, dir, func(name string, data []float64) (string, []float64) {
		if name == atmFluxEdgeField {
			data = data[:len(data)-1]
		}
		return name, data
	})
}

// rewriteRestart rewrites a 1-rank restart set field by field through edit,
// which may rename or replace each field.
func rewriteRestart(c *par.Comm, dir string, edit func(name string, data []float64) (string, []float64)) error {
	global, err := pario.ReadGlobal(pario.SubfilePaths(dir, 1))
	if err != nil {
		return err
	}
	var fields []pario.Field
	for name, data := range global {
		name, data = edit(name, data)
		fields = append(fields, pario.Field{Name: name, Global: len(data), Data: data})
	}
	return pario.WriteSubfiles(c, dir, 1, fields)
}

// A checkpoint from before the atmosphere's state went column-major holds
// the same lengths under the old names, level-major. Read into today's
// model it would put every value on the wrong level, so ReadRestart must
// refuse it by name instead.
func TestRestartRejectsLevelMajorCheckpoint(t *testing.T) {
	start := time.Date(2023, 7, 21, 0, 0, 0, 0, time.UTC)
	cfg, _ := ConfigForLabel("25v10")
	old := map[string]string{
		atmTField: "atm.t", atmQvField: "atm.qv", atmUField: "atm.u", atmFluxEdgeField: "atm.fluxedge",
	}
	par.Run(1, func(c *par.Comm) {
		e, _ := NewWithOptions(cfg, c, WithInterval(start, start.Add(time.Hour)), WithSpace(pp.Serial{}))
		for i := 0; i < 2; i++ {
			e.Step()
		}
		dir := t.TempDir()
		if err := e.WriteRestart(dir, 1); err != nil {
			t.Fatal(err)
		}
		m := e.Atm
		nc, ne := m.Mesh.NCells(), m.Mesh.NEdges()
		err := rewriteRestart(c, dir, func(name string, data []float64) (string, []float64) {
			prev, ok := old[name]
			if !ok {
				return name, data
			}
			n := nc // columns of the field
			if len(data) == m.NLev*ne {
				n = ne
			}
			lm := make([]float64, len(data))
			for i := 0; i < n; i++ {
				for k := 0; k < m.NLev; k++ {
					lm[k*n+i] = data[m.Idx(i, k)]
				}
			}
			return prev, lm
		})
		if err != nil {
			t.Fatal(err)
		}
		fresh, _ := NewWithOptions(cfg, c, WithInterval(start, start.Add(time.Hour)), WithSpace(pp.Serial{}))
		err = fresh.ReadRestart(dir, 1)
		if err == nil || !strings.Contains(err.Error(), "core: restart missing field") {
			t.Errorf("level-major checkpoint: ReadRestart returned %v, want a missing-field error", err)
		}
	})
}

// A restart whose flux accumulator is the wrong length is an error from
// ReadRestart — it used to panic inside the atmosphere — and RunResilient
// answers a rollback onto such a set the way it answers any corrupt
// checkpoint: restart from the initial state, finishing bit-for-bit.
func TestRestartShortFluxAccumulators(t *testing.T) {
	const steps = 20
	days := float64(steps) / 180

	refDir := t.TempDir()
	par.Run(1, func(c *par.Comm) {
		mk := mkESM(t, c)
		e, _ := mk()
		for i := 0; i < steps; i++ {
			e.Step()
		}
		if err := e.WriteRestart(refDir, 1); err != nil {
			t.Fatal(err)
		}
		// The direct path: a fresh model refuses the shortened copy.
		short := t.TempDir()
		if err := e.WriteRestart(short, 1); err != nil {
			t.Fatal(err)
		}
		if err := shortenFluxEdge(c, short); err != nil {
			t.Fatal(err)
		}
		fresh, _ := mk()
		err := fresh.ReadRestart(short, 1)
		if err == nil || !strings.Contains(err.Error(), "atm.fluxedge") {
			t.Errorf("short atm.fluxedge: ReadRestart returned %v, want an error naming the field", err)
		}
	})

	// The supervised path: the NaN at step 12 forces a rollback onto the
	// step-8 set, which the rollback's rebuild (the second mk call) shortens
	// just before the rollback reads it.
	plan, err := fault.Parse("nan@esm.step:12", 7)
	if err != nil {
		t.Fatal(err)
	}
	fault.Arm(plan)
	defer fault.Disarm()
	ckDir := filepath.Join(t.TempDir(), "ck")
	gotDir := t.TempDir()
	par.Run(1, func(c *par.Comm) {
		mk, calls := mkESM(t, c), 0
		e, rep, err := RunResilient(func() (*ESM, error) {
			if calls++; calls == 2 {
				if err := shortenFluxEdge(c, ckDir); err != nil {
					t.Error(err)
				}
			}
			return mk()
		}, ResilientConfig{
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
			t.Fatalf("%s differs from the fault-free run after the short-checkpoint fallback", name)
		}
	}
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
