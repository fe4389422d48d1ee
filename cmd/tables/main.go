// Command tables is the one generator of the paper's model-derived
// artifacts. Each experiment is selected by the ID DESIGN.md §4 gives it:
//
//	T1   Table 1   (model configurations / grid counts)
//	T2   Table 2   (strong scaling, ORISE + Sunway)
//	F2   Figure 2  (state-of-the-art scatter and line)
//	F8a  Figure 8a (strong-scaling curves)
//	F8b  Figure 8b (weak-scaling ladders)
//	E7   task layouts, 1v1 strong-scaling efficiency, 3 km ATM cost
//	     anatomy and the projected coupled ladder (§5.1.2/§7.2)
//	E11  rearranger traffic (§5.2.4 p2p vs alltoall message counts)
//	E12  coupled budget residuals of the conservative remap (§5.1.1)
//
// With no flag it prints every experiment in that order; -exp picks some:
//
//	tables -exp F8a,E7
package main

import (
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"strings"

	"repro/internal/budget"
	"repro/internal/core"
	"repro/internal/coupler"
	"repro/internal/par"
	"repro/internal/perfmodel"
	"repro/internal/pp"
)

// experiment is one §4 row this command regenerates: its header title and
// the routine that prints its rows.
type experiment struct {
	id, title string
	print     func(w io.Writer, m *perfmodel.Model) error
}

var experiments = []experiment{
	{"T1", "Table 1: model configurations (regenerated from grid formulas/catalogs)", printTable1},
	{"T2", "Table 2: strong scaling (paper vs calibrated model)", printTable2},
	{"F2", "Figure 2: state of the art", printFigure2},
	{"F8a", "Figure 8a: strong scaling curves", printFigure8a},
	{"F8b", "Figure 8b: weak scaling", printFigure8b},
	{"E7", "Task layouts and coupled projection (§5.1.2/§7.2)", printLayouts},
	{"E11", "Rearranger traffic: p2p vs alltoall messages (§5.2.4)", printRearrTable},
	{"E12", "Coupled budget residuals: conservative remap (§5.1.1)", printBudgetTable},
}

// experimentIDs returns every experiment ID in print order.
func experimentIDs() []string {
	ids := make([]string, len(experiments))
	for i, e := range experiments {
		ids[i] = e.id
	}
	return ids
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("tables: ")
	exp := flag.String("exp", strings.Join(experimentIDs(), ","), "comma-separated experiment IDs (DESIGN.md §4)")
	flag.Parse()
	if flag.NArg() > 0 {
		flag.Usage()
		os.Exit(2)
	}
	if err := run(os.Stdout, strings.Split(*exp, ",")); err != nil {
		log.Fatal(err)
	}
}

// run prints the named experiments to w in the order given, a blank line
// between sections. Every ID is checked before anything is printed.
func run(w io.Writer, ids []string) error {
	sel := make([]experiment, 0, len(ids))
	for _, id := range ids {
		i := indexOf(strings.TrimSpace(id))
		if i < 0 {
			return fmt.Errorf("unknown experiment %q; valid IDs: %s", id, strings.Join(experimentIDs(), ", "))
		}
		sel = append(sel, experiments[i])
	}
	m, err := perfmodel.NewModel()
	if err != nil {
		return err
	}
	for i, e := range sel {
		if i > 0 {
			fmt.Fprintln(w)
		}
		fmt.Fprintf(w, "=== %s — %s ===\n", e.id, e.title)
		if err := e.print(w, m); err != nil {
			return fmt.Errorf("%s: %w", e.id, err)
		}
	}
	return nil
}

func indexOf(id string) int {
	for i, e := range experiments {
		if e.id == id {
			return i
		}
	}
	return -1
}

func printTable1(w io.Writer, _ *perfmodel.Model) error {
	_, err := io.WriteString(w, perfmodel.FormatTable1(perfmodel.Table1()))
	return err
}

func printTable2(w io.Writer, m *perfmodel.Model) error {
	_, err := io.WriteString(w, perfmodel.FormatTable2(m.Table2()))
	return err
}

func printFigure2(w io.Writer, _ *perfmodel.Model) error {
	entries := perfmodel.Figure2Entries()
	line := perfmodel.FitSOTALine(entries)
	fmt.Fprintf(w, "SOTA line: log10(SYPD) = %.4f·log10(points) + %.4f\n", line.Slope, line.Intercept)
	for _, e := range entries {
		above, factor := line.Above(e)
		tag := " "
		if e.ThisWork {
			tag = "*"
		}
		fmt.Fprintf(w, "%s %-20s %d  %9.3g pts  %5.2f SYPD  line %5.2f  above=%-5v (%.2fx)\n",
			tag, e.Name, e.Year, e.GridPoints, e.SYPD, line.At(e.GridPoints), above, factor)
	}
	return nil
}

func printFigure8a(w io.Writer, m *perfmodel.Model) error {
	for _, id := range m.IDs() {
		label, pts, err := m.Fig8aSeries(id, 8)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "%s (%s):\n", label, id)
		for _, p := range pts {
			mark := ""
			if p.IsAnchor {
				mark = fmt.Sprintf("   <- paper %.4g", p.Paper)
			}
			fmt.Fprintf(w, "  %8d nodes  %12.0f  %9.4f SYPD%s\n", p.Nodes, p.Resource, p.SYPD, mark)
		}
	}
	aLo, aHi, _ := m.SpeedupRange(perfmodel.CurveATM3MPE, perfmodel.CurveATM3CPE, true)
	oLo, oHi, _ := m.SpeedupRange(perfmodel.CurveOCN2MPE, perfmodel.CurveOCN2CPE, true)
	fmt.Fprintf(w, "CPE+OPT over MPE: ATM %.0f-%.0fx (paper 112-184), OCN %.0f-%.0fx (paper 84-150)\n", aLo, aHi, oLo, oHi)
	return nil
}

func printFigure8b(w io.Writer, m *perfmodel.Model) error {
	atm, err := m.WeakSeries(perfmodel.CurveATM3CPE, perfmodel.ATMWeakLadder())
	if err != nil {
		return err
	}
	ocn, err := m.WeakSeries(perfmodel.CurveOCN2CPE, perfmodel.OCNWeakLadder())
	if err != nil {
		return err
	}
	for _, s := range []struct {
		name   string
		series []perfmodel.WeakPoint
	}{{"atmosphere (paper final efficiency 87.85%)", atm}, {"ocean (paper final efficiency 96.57%)", ocn}} {
		fmt.Fprintf(w, "%s:\n", s.name)
		for _, p := range s.series {
			fmt.Fprintf(w, "  %3d km  %6d nodes  %9d cores  %7.4f SYPD  eff %6.2f%%\n",
				p.ResKm, p.Nodes, p.Cores, p.SYPD, 100*p.Efficiency)
		}
	}
	return nil
}

// printLayouts evaluates the §5.1.2 task-parallel strategies on the
// calibrated 3v2 components (sequential single domain vs the optimised
// two-domain split), then what the same curves say at full scale: the 1v1
// strong-scaling efficiency, where the 3 km atmosphere's time goes as it
// scales (the Fig 8a bend), and the coupled ladder composed from component
// curves alone.
func printLayouts(w io.Writer, m *perfmodel.Model) error {
	atm := m.MustCurve(perfmodel.CurveATM3CPE)
	ocn := m.MustCurve(perfmodel.CurveOCN2CPE)
	esm3v2 := m.MustCurve(perfmodel.CurveESM3v2)
	const cores = 3e7
	cpl := perfmodel.ImpliedCouplerTime(esm3v2, atm, ocn, cores)
	seq := perfmodel.SequentialLayout(atm, ocn, cores, cpl)
	conc, err := perfmodel.OptimalSplit(atm, ocn, cores, cpl)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "3v2 on 30M cores: sequential layout %.2f SYPD; concurrent two-domain %.2f SYPD at %.0f%% atmosphere share (fitted 3v2 curve %.2f)\n",
		seq.SYPD, conc.SYPD, 100*conc.AtmFraction, esm3v2.SYPD(cores))

	c1v1 := m.MustCurve(perfmodel.CurveESM1v1)
	fmt.Fprintf(w, "1v1 coupled AP3ESM at 37.2M cores: %.2f SYPD (paper 0.54); strong-scaling efficiency 8.7M -> 37.2M cores: %.1f%% (paper 90.7%%)\n",
		c1v1.SYPD(37172980), 100*c1v1.Efficiency(8745360, 37172980))
	for _, res := range []float64{2129920, 8519680, 17039360} {
		comp, halo, coll := atm.Breakdown(res)
		fmt.Fprintf(w, "3 km ATM at %8.0f cores: compute %4.1f%%, halo %4.1f%%, collectives %4.1f%%\n",
			res, 100*comp, 100*halo, 100*coll)
	}

	ladder, err := m.ProjectionLadder(3.6e7)
	if err != nil {
		return err
	}
	fmt.Fprintln(w, "projected coupled ladder at 36M cores (paper measured 3v2=1.01, 1v1=0.54):")
	for _, p := range ladder {
		fmt.Fprintf(w, "  %-6s %7.2f SYPD  (atm share %.0f%%)\n", p.Label, p.SYPD, 100*p.AtmShare)
	}
	return nil
}

// printBudgetTable runs the 25v10 coupled configuration with the
// conservation audit on and prints its residual summary: the first-order
// conservative remap closes the interface heat and freshwater budgets to
// round-off (~1e-15 relative).
func printBudgetTable(w io.Writer, _ *perfmodel.Model) error {
	cfg, err := core.ConfigForLabel("25v10")
	if err != nil {
		return err
	}
	const steps = 50 // 10 ocean coupling intervals at 25v10
	var s budget.Summary
	par.Run(1, func(c *par.Comm) {
		var e *core.ESM
		if e, err = core.NewWithOptions(cfg, c, core.WithSpace(pp.Serial{}), core.WithAudit(true)); err != nil {
			return
		}
		for i := 0; i < steps; i++ {
			e.Step()
		}
		s = e.Budget().Summary()
	})
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "25v10, %d base steps, serial backend, seq schedule; residuals are relative\n", steps)
	fmt.Fprintf(w, "%9s  %12s %12s  %12s %12s  %9s\n",
		"intervals", "heat max", "heat mean", "fw max", "fw mean", "unmapped")
	fmt.Fprintf(w, "%9d  %12.3e %12.3e  %12.3e %12.3e  %9d\n",
		s.N, s.MaxHeatResid, s.MeanHeatResid, s.MaxFWResid, s.MeanFWResid, s.UnmappedCells)
	return nil
}

// printRearrTable builds routers over an ocean-sized index space at
// several rank counts and prints, per count, the total messages each mode
// produces — the corrected accounting where the self-rank block never
// counts as a p2p message while the collective touches every pair slot.
// Two redistribution patterns bracket the real coupler: a dense
// block->cyclic shuffle (every pair exchanges) and a sparse half-block
// shift (each rank talks to at most two neighbors, the §5.2.4 regime
// where the p2p rearranger wins big).
func printRearrTable(w io.Writer, _ *perfmodel.Model) error {
	const n = 128 * 64 // a 25v10-class ocean surface index space
	fmt.Fprintf(w, "%6s  %10s  |%12s  %10s  |%12s  %10s\n",
		"ranks", "alltoall", "dense p2p", "reduction", "sparse p2p", "reduction")
	for _, p := range []int{2, 4, 8, 16, 32} {
		bw := (n + p - 1) / p
		block := func(gi int) int {
			pe := gi / bw
			if pe >= p {
				pe = p - 1
			}
			return pe
		}
		src, err := coupler.OfflineGSMap(block, n, p)
		if err != nil {
			return err
		}
		denseDst, err := coupler.OfflineGSMap(func(gi int) int { return gi % p }, n, p)
		if err != nil {
			return err
		}
		sparseDst, err := coupler.OfflineGSMap(func(gi int) int {
			return block((gi + bw/2) % n)
		}, n, p)
		if err != nil {
			return err
		}
		a2aTotal := 0
		totals := make(map[*coupler.GSMap]int)
		for _, dst := range []*coupler.GSMap{denseDst, sparseDst} {
			rs, err := coupler.BuildRouterOffline(src, dst, p)
			if err != nil {
				return err
			}
			a2aTotal = 0
			for pe, r := range rs {
				a2a, p2p := r.MessageCount(pe, p)
				a2aTotal += a2a
				totals[dst] += p2p
			}
		}
		red := func(p2p int) float64 {
			if p2p == 0 {
				return float64(a2aTotal)
			}
			return float64(a2aTotal) / float64(p2p)
		}
		fmt.Fprintf(w, "%6d  %10d  |%12d  %9.2fx  |%12d  %9.2fx\n",
			p, a2aTotal, totals[denseDst], red(totals[denseDst]),
			totals[sparseDst], red(totals[sparseDst]))
	}
	return nil
}
