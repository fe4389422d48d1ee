package core

import (
	"fmt"
	"slices"
	"testing"

	"repro/internal/budget"
	"repro/internal/grid"
	"repro/internal/par"
	"repro/internal/pp"
)

// runAudited advances a fresh audited model 50 base steps (10 ocean
// couplings at 25v10) and returns each rank's ledger summary and state
// snapshot.
func runAudited(t *testing.T, ranks int, sched Schedule) ([]budget.Summary, [][]float64) {
	t.Helper()
	cfg, err := ConfigForLabel("25v10")
	if err != nil {
		t.Fatal(err)
	}
	const steps = 50
	sums := make([]budget.Summary, ranks)
	snaps := make([][]float64, ranks)
	par.Run(ranks, func(c *par.Comm) {
		e, err := NewWithOptions(cfg, c, WithSpace(pp.Serial{}),
			WithSchedule(sched), WithAudit(true))
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
		sums[c.Rank()] = e.Budget().Summary()
		snaps[c.Rank()] = snapshotState(e)
	})
	return sums, snaps
}

// The acceptance gate: under the conservative remap the globally reduced
// heat and freshwater residuals close to round-off (≤ 1e-10 relative) over
// ≥ 10 coupling intervals, on 1, 2, 4 and 8 ranks, both schedules — and
// seq/conc remain bit-for-bit identical with the conservative flux path
// active.
func TestConsBudgetCloses(t *testing.T) {
	for _, ranks := range []int{1, 2, 4, 8} {
		var ref [][]float64
		for _, sched := range []Schedule{ScheduleSeq, ScheduleConc} {
			t.Run(fmt.Sprintf("ranks=%d/%v", ranks, sched), func(t *testing.T) {
				sums, snaps := runAudited(t, ranks, sched)
				for rank, s := range sums {
					if s.N < 10 {
						t.Fatalf("rank %d: only %d audited intervals", rank, s.N)
					}
					if s.MaxHeatResid > 1e-10 {
						t.Errorf("rank %d: max heat residual %.3e exceeds 1e-10", rank, s.MaxHeatResid)
					}
					if s.MaxFWResid > 1e-10 {
						t.Errorf("rank %d: max freshwater residual %.3e exceeds 1e-10", rank, s.MaxFWResid)
					}
					// The ledger is identical on every rank by construction:
					// multi-rank runs batch both sides' owned-range partials
					// through one allreduce.
					if s != sums[0] {
						t.Errorf("rank %d: summary differs from rank 0", rank)
					}
				}
				if ref == nil {
					ref = snaps
					return
				}
				for rank := range snaps {
					if len(snaps[rank]) != len(ref[rank]) {
						t.Fatalf("rank %d: snapshot sizes differ", rank)
					}
					for i := range snaps[rank] {
						if snaps[rank][i] != ref[rank][i] {
							t.Fatalf("rank %d: state[%d] differs between schedules under cons remap",
								rank, i)
						}
					}
				}
			})
		}
	}
}

// dryTropics turns the 18 ocean rows about the equator into land, which
// leaves the 25v10 atmosphere cells there with no wet column in reach: the
// model's unmapped cells.
func dryTropics(cfg Config, g *grid.Tripolar) {
	for j := cfg.OcnNY/2 - 9; j < cfg.OcnNY/2+9; j++ {
		for i := 0; i < cfg.OcnNX; i++ {
			g.SetLand(j*cfg.OcnNX + i)
		}
	}
}

// Unmapped atmosphere cells must be fully routed: flagged as land for the
// atmosphere's surface physics, adopted by the land model of the rank that
// holds them, and counted by the audit on every rank — never dropped. The
// model's ocean is dried about the equator (dryTropics), so it has some.
func TestUnmappedCellsRoutedToLand(t *testing.T) {
	cfg, err := ConfigForLabel("25v10")
	if err != nil {
		t.Fatal(err)
	}
	mesh, err := grid.NewIcosMesh(cfg.AtmLevel)
	if err != nil {
		t.Fatal(err)
	}
	g, err := grid.NewTripolar(cfg.OcnNX, cfg.OcnNY, cfg.OcnNLev)
	if err != nil {
		t.Fatal(err)
	}
	dryTropics(cfg, g)
	unmapped := NewRegridder(mesh, g).Unmapped
	if len(unmapped) == 0 {
		t.Fatal("the dried tropics leave no unmapped cell: the test exercises no adoption")
	}
	dry := func(o *options) { o.dry = func(g *grid.Tripolar) { dryTropics(cfg, g) } }
	for _, ranks := range []int{1, 2} {
		t.Run(fmt.Sprintf("ranks=%d", ranks), func(t *testing.T) {
			held := make([][]int, ranks) // per rank, the unmapped cells it owns
			par.Run(ranks, func(c *par.Comm) {
				e, err := NewWithOptions(cfg, c, WithSpace(pp.Serial{}), WithAudit(true), dry)
				if err != nil {
					t.Error(err)
					return
				}
				global := func(lc int) int {
					if e.Atm.Decomp() == nil {
						return lc
					}
					return int(e.Atm.Mesh.GlobalCell[lc])
				}
				adopted := map[int]bool{}
				for _, lc := range e.Lnd.Cells {
					adopted[global(lc)] = true
				}
				e.forAtmOwned(func(cell, lc int) {
					if !slices.Contains(unmapped, cell) {
						return
					}
					held[c.Rank()] = append(held[c.Rank()], cell)
					if !e.Atm.IsLand[lc] {
						t.Errorf("rank %d: unmapped cell %d not flagged as land", c.Rank(), cell)
					}
					if !adopted[cell] {
						t.Errorf("rank %d: unmapped cell %d not adopted by the land model", c.Rank(), cell)
					}
				})
				for i := 0; i < 5; i++ {
					if !e.Step() {
						t.Errorf("clock exhausted at step %d", i)
						return
					}
				}
				iv, ok := e.Budget().Last()
				if !ok {
					t.Error("no audited intervals")
					return
				}
				if got, want := iv.UnmappedCells, len(unmapped); got != want {
					t.Errorf("rank %d: audited unmapped count %d, want %d", c.Rank(), got, want)
				}
			})
			all := slices.Concat(held...)
			slices.Sort(all)
			if !slices.Equal(all, unmapped) {
				t.Errorf("the ranks own unmapped cells %v, the regridder lists %v", all, unmapped)
			}
		})
	}
}
