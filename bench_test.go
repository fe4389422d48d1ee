// Package repro's top-level benchmark harness regenerates every table and
// figure of the paper's evaluation (see DESIGN.md §4 for the experiment
// index and EXPERIMENTS.md for recorded results):
//
//	BenchmarkTable1Configurations  — Table 1   (grid counts)
//	BenchmarkTable2StrongScaling   — Table 2   (SYPD on both machines)
//	BenchmarkFigure2SOTA           — Figure 2  (state-of-the-art scatter + line)
//	BenchmarkFigure8aStrongScaling — Figure 8a (strong-scaling curves)
//	BenchmarkFigure8bWeakScaling   — Figure 8b (weak-scaling ladders)
//	BenchmarkFigure6TyphoonStructure / BenchmarkFigure7Track — Figs 1/6/7
//	BenchmarkAIPhysicsSuite        — §5.2.1    (AI vs conventional physics)
//	BenchmarkOceanCompaction       — §5.2.2    (non-ocean-point exclusion)
//	BenchmarkMixedPrecision        — §5.2.3    (FP64 vs group-scaled FP32)
//	BenchmarkCouplerRearranger / BenchmarkRouterOffline — §5.2.4
//	BenchmarkParallelIO            — §5.2.5    (single file vs subfiles)
//	BenchmarkPortabilityBackends   — §5.3      (Serial / Host / CPE spaces)
//	BenchmarkTaskLayouts           — §5.1.2/§7.2 (sequential vs concurrent)
//	BenchmarkCoupledESM            — measured SYPD of the miniature coupled model
package repro

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"time"

	"repro/internal/aiphys"
	"repro/internal/atmos"
	"repro/internal/core"
	"repro/internal/coupler"
	"repro/internal/grid"
	"repro/internal/ocean"
	"repro/internal/par"
	"repro/internal/pario"
	"repro/internal/perfmodel"
	"repro/internal/pp"
	"repro/internal/precision"
	"repro/internal/typhoon"
)

// BenchmarkTable1Configurations regenerates Table 1 from the closed-form
// mesh counts and the LICOM grid catalog.
func BenchmarkTable1Configurations(b *testing.B) {
	var rows []perfmodel.Table1Row
	for i := 0; i < b.N; i++ {
		rows = perfmodel.Table1()
	}
	b.ReportMetric(float64(len(rows)), "rows")
	if b.N > 0 {
		b.Logf("\n%s", perfmodel.FormatTable1(rows))
	}
}

func newModel(b *testing.B) *perfmodel.Model {
	b.Helper()
	m, err := perfmodel.NewModel()
	if err != nil {
		b.Fatal(err)
	}
	return m
}

// BenchmarkTable2StrongScaling regenerates every row of Table 2 (both the
// ORISE and Sunway OceanLight sections) from the calibrated machine model
// and reports the worst deviation from the paper's values.
func BenchmarkTable2StrongScaling(b *testing.B) {
	m := newModel(b)
	var rows []perfmodel.Table2Row
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rows = m.Table2()
	}
	b.StopTimer()
	worst := 0.0
	for _, r := range rows {
		if rel := math.Abs(r.ModelSYPD-r.PaperSYPD) / r.PaperSYPD; rel > worst {
			worst = rel
		}
	}
	b.ReportMetric(float64(len(rows)), "rows")
	b.ReportMetric(100*worst, "worst-dev-%")
	b.Logf("\n%s", perfmodel.FormatTable2(rows))
}

// BenchmarkFigure2SOTA regenerates the state-of-the-art comparison: the
// published-model scatter, the log-linear SOTA line through CNRM(2019) and
// CESM(2024), and the AP3ESM points above it.
func BenchmarkFigure2SOTA(b *testing.B) {
	var line perfmodel.SOTALine
	entries := perfmodel.Figure2Entries()
	for i := 0; i < b.N; i++ {
		line = perfmodel.FitSOTALine(entries)
	}
	b.StopTimer()
	for _, e := range entries {
		above, factor := line.Above(e)
		b.Logf("%-18s (%d): %8.3g grid points, %5.2f SYPD  line=%5.2f  above=%-5v (%.2fx)  [%s]",
			e.Name, e.Year, e.GridPoints, e.SYPD, line.At(e.GridPoints), above, factor, e.Source)
	}
	b.ReportMetric(line.Slope, "line-slope")
}

// BenchmarkFigure8aStrongScaling samples every strong-scaling curve of
// Fig 8a, anchors included, and reports the CPE-over-MPE speedup bands
// (paper: ATM 112–184x, OCN 84–150x).
func BenchmarkFigure8aStrongScaling(b *testing.B) {
	m := newModel(b)
	b.ResetTimer()
	var total int
	for i := 0; i < b.N; i++ {
		total = 0
		for _, id := range m.IDs() {
			_, pts, err := m.Fig8aSeries(id, 12)
			if err != nil {
				b.Fatal(err)
			}
			total += len(pts)
		}
	}
	b.StopTimer()
	for _, id := range m.IDs() {
		label, pts, _ := m.Fig8aSeries(id, 6)
		b.Logf("%s:", label)
		for _, p := range pts {
			mark := " "
			if p.IsAnchor {
				mark = fmt.Sprintf(" [paper %.4g]", p.Paper)
			}
			b.Logf("  %9d nodes  %12.0f res  %8.4f SYPD%s", p.Nodes, p.Resource, p.SYPD, mark)
		}
	}
	aLo, aHi, _ := m.SpeedupRange(perfmodel.CurveATM3MPE, perfmodel.CurveATM3CPE, true)
	oLo, oHi, _ := m.SpeedupRange(perfmodel.CurveOCN2MPE, perfmodel.CurveOCN2CPE, true)
	b.Logf("CPE/MPE speedup: ATM %.0f-%.0fx (paper 112-184), OCN %.0f-%.0fx (paper 84-150)", aLo, aHi, oLo, oHi)
	b.ReportMetric(float64(total), "points")
}

// BenchmarkFigure8bWeakScaling regenerates the weak-scaling ladders of
// Fig 8b (paper endpoints: ATM 87.85 %, OCN 96.57 %).
func BenchmarkFigure8bWeakScaling(b *testing.B) {
	m := newModel(b)
	var atm, ocn []perfmodel.WeakPoint
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var err error
		atm, err = m.WeakSeries(perfmodel.CurveATM3CPE, perfmodel.ATMWeakLadder())
		if err != nil {
			b.Fatal(err)
		}
		ocn, err = m.WeakSeries(perfmodel.CurveOCN2CPE, perfmodel.OCNWeakLadder())
		if err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	for _, series := range [][]perfmodel.WeakPoint{atm, ocn} {
		for _, p := range series {
			b.Logf("%3d km  %6d nodes  %9d cores  %7.4f SYPD  eff %.4f",
				p.ResKm, p.Nodes, p.Cores, p.SYPD, p.Efficiency)
		}
	}
	b.ReportMetric(atm[len(atm)-1].Efficiency, "atm-weak-eff")
	b.ReportMetric(ocn[len(ocn)-1].Efficiency, "ocn-weak-eff")
}

// BenchmarkFigure6TyphoonStructure runs the Doksuri vortex at two
// resolutions and measures the structure contrast of Fig 6: eye
// compactness (radius of maximum wind) and resolved fine-scale variance.
func BenchmarkFigure6TyphoonStructure(b *testing.B) {
	measure := func(level int) (rmw, fsv float64) {
		m, err := atmos.New(level, 8, atmos.DefaultConfig(), pp.NewHost(0))
		if err != nil {
			b.Fatal(err)
		}
		if err := typhoon.Seed(m, typhoon.DoksuriSeed()); err != nil {
			b.Fatal(err)
		}
		m.StepModel()
		fix, err := typhoon.FindCenter(m, time.Unix(0, 0), 900)
		if err != nil {
			b.Fatal(err)
		}
		u, v := m.Wind10m()
		speed := make([]float64, len(u))
		for i := range u {
			speed[i] = math.Hypot(u[i], v[i])
		}
		return typhoon.RadiusOfMaxWind(m, fix, 900), typhoon.FineScaleVariance(m.Mesh, speed)
	}
	var rc, rf, fc, ff float64
	for i := 0; i < b.N; i++ {
		rc, fc = measure(4) // coarse ("25v10-class")
		rf, ff = measure(5) // fine ("3v2-class")
	}
	b.ReportMetric(rc/rf, "eye-compaction-x")
	b.ReportMetric(ff/fc, "finescale-gain-x")
	b.Logf("coarse: RMW %.0f km, fine-scale %.3g;  fine: RMW %.0f km, fine-scale %.3g", rc, fc, rf, ff)
}

// BenchmarkFigure7Track runs the coupled Doksuri forecast and reports the
// simulated track against the CMA-style best track.
func BenchmarkFigure7Track(b *testing.B) {
	var trackErr float64
	for i := 0; i < b.N; i++ {
		par.Run(1, func(c *par.Comm) {
			cfg, err := core.ConfigForLabel("10v5")
			if err != nil {
				b.Fatal(err)
			}
			start := time.Date(2023, 7, 21, 0, 0, 0, 0, time.UTC)
			e, err := core.NewWithOptions(cfg, c, core.WithInterval(start, start.Add(48*time.Hour)), core.WithSpace(pp.NewHost(0)))
			if err != nil {
				b.Fatal(err)
			}
			seed := typhoon.DoksuriSeed()
			if err := typhoon.Seed(e.Atm, seed); err != nil {
				b.Fatal(err)
			}
			prev := typhoon.Fix{Time: start, LonDeg: seed.LonDeg, LatDeg: seed.LatDeg}
			var fixes []typhoon.Fix
			for h := 0; h < 2; h++ {
				for s := 0; s < 45; s++ {
					e.Step()
				}
				fix, err := typhoon.FindCenterNear(e.Atm, start.Add(time.Duration(h+1)*6*time.Hour), prev, 1200, 800)
				if err != nil {
					b.Fatal(err)
				}
				fixes = append(fixes, fix)
				prev = fix
			}
			trackErr, err = typhoon.TrackError(fixes, typhoon.BestTrackDoksuri())
			if err != nil {
				b.Fatal(err)
			}
		})
	}
	b.ReportMetric(trackErr, "track-err-km")
}

// BenchmarkAIPhysicsSuite compares the per-column cost of the AI physics
// suite against the conventional suite (§5.2.1: physics unified into tensor
// kernels) and reports the trained test losses.
func BenchmarkAIPhysicsSuite(b *testing.B) {
	m, err := atmos.New(2, 8, atmos.DefaultConfig(), pp.Serial{})
	if err != nil {
		b.Fatal(err)
	}
	suite, res, err := aiphys.TrainedSuite(m, 8, 200, 6, 42)
	if err != nil {
		b.Fatal(err)
	}
	conv := atmos.NewConventionalSuite(m)

	nlev := m.NLev
	in := atmos.ColumnIn{
		U: make([]float64, nlev), V: make([]float64, nlev),
		T: make([]float64, nlev), Q: make([]float64, nlev),
		P:   make([]float64, nlev),
		Lat: 0.3, TSkin: 300, CosZ: 0.7,
	}
	for k := 0; k < nlev; k++ {
		in.T[k] = 280
		in.P[k] = m.Sig[k] * atmos.P0
		in.Q[k] = 0.004
	}
	out := atmos.ColumnOut{
		DT: make([]float64, nlev), DQ: make([]float64, nlev),
		DU: make([]float64, nlev), DV: make([]float64, nlev),
	}

	b.Run("conventional", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			conv.Column(in, 480, &out)
		}
	})
	b.Run("ai-powered", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			suite.Column(in, 480, &out)
		}
	})
	b.Logf("trained test loss: CNN %.3f, MLP %.3f (zero-predictor baseline ≈ 1.0)",
		res.TestLossCNN, res.TestLossMLP)
}

// BenchmarkOceanCompaction measures the §5.2.2 exclusion: the full
// rectangular tracer sweep vs the compacted wet-column sweep, plus the
// load-balance gain of the wet-point rank remapping.
func BenchmarkOceanCompaction(b *testing.B) {
	g, err := grid.NewTripolar(144, 72, 20)
	if err != nil {
		b.Fatal(err)
	}
	par.Run(1, func(c *par.Comm) {
		blk, _ := grid.NewTripolarDecomp(g, c, 1)
		o, err := ocean.New(g, blk, ocean.DefaultConfig(), pp.Serial{})
		if err != nil {
			b.Fatal(err)
		}
		o.Step() // make state non-trivial
		comp := o.Compact()

		b.Run("full-sweep", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				o.TracerSweepFull()
			}
		})
		b.Run("compacted-sweep", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				o.TracerSweepCompact(comp)
			}
		})
		b.Logf("2-D work saving %.1f%%, 3-D saving %.1f%% (paper: ~30%% resources)",
			100*comp.WorkSaving(), 100*comp.WorkSaving3D())
		block, _ := ocean.BlockOwner(g, 4, 4)
		bal := ocean.BalancedOwner(g, 16)
		b.Logf("load imbalance: block %.2f -> balanced %.2f",
			block.LoadImbalance(g), bal.LoadImbalance(g))
	})
}

// BenchmarkMixedPrecision measures §5.2.3: FP64 vs group-scaled-FP32 ocean
// steps, reporting the acceptance RMSDs alongside throughput.
func BenchmarkMixedPrecision(b *testing.B) {
	run := func(b *testing.B, pol precision.Policy) {
		g, _ := grid.NewTripolar(96, 48, 10)
		par.Run(1, func(c *par.Comm) {
			blk, _ := grid.NewTripolarDecomp(g, c, 1)
			cfg := ocean.DefaultConfig()
			cfg.Policy = pol
			o, err := ocean.New(g, blk, cfg, pp.Serial{})
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				o.Step()
			}
		})
	}
	b.Run("fp64", func(b *testing.B) { run(b, precision.FP64) })
	b.Run("mixed-fp32", func(b *testing.B) { run(b, precision.Mixed) })
	th := precision.PaperThresholds()
	b.Logf("paper acceptance: atmosphere rel-L2 < %.0f%%; ocean RMSD T %.3g degC, S %.3g psu, SSH %.4g m",
		100*th.AtmosRelL2, th.OceanTempC, th.OceanSaltPSU, th.OceanSSHm)
}

// BenchmarkCouplerRearranger compares the original all-to-all rearranger
// against the non-blocking point-to-point optimization (§5.2.4) on a
// block→cyclic redistribution.
func BenchmarkCouplerRearranger(b *testing.B) {
	const n, p = 4096, 8
	src, _ := coupler.OfflineGSMap(func(gi int) int { return gi * p / n }, n, p)
	dst, _ := coupler.OfflineGSMap(func(gi int) int { return gi % p }, n, p)
	for _, mode := range []coupler.RearrangeMode{coupler.ModeAlltoall, coupler.ModeP2P} {
		b.Run(mode.String(), func(b *testing.B) {
			par.Run(p, func(c *par.Comm) {
				r, err := coupler.BuildRouter(c, src, dst)
				if err != nil {
					b.Fatal(err)
				}
				av, _ := coupler.NewAttrVect([]string{"t", "s", "u", "v"}, r.NSrc)
				if c.Rank() == 0 {
					b.ResetTimer()
				}
				for i := 0; i < b.N; i++ {
					if _, err := coupler.Rearrange(c, r, av, mode); err != nil {
						b.Fatal(err)
					}
				}
			})
		})
	}
}

// BenchmarkRouterOffline compares online (per-rank, communicating) router
// construction against the offline preprocessing path (§5.2.4), and
// reports table memory.
func BenchmarkRouterOffline(b *testing.B) {
	const n, p = 8192, 8
	src, _ := coupler.OfflineGSMap(func(gi int) int { return gi * p / n }, n, p)
	dst, _ := coupler.OfflineGSMap(func(gi int) int { return gi % p }, n, p)
	b.Run("online", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			par.Run(p, func(c *par.Comm) {
				if _, err := coupler.BuildRouter(c, src, dst); err != nil {
					b.Fatal(err)
				}
			})
		}
	})
	b.Run("offline", func(b *testing.B) {
		var bytes int
		for i := 0; i < b.N; i++ {
			rs, err := coupler.BuildRouterOffline(src, dst, p)
			if err != nil {
				b.Fatal(err)
			}
			bytes = rs[0].Bytes()
		}
		b.ReportMetric(float64(bytes), "router-bytes")
	})
}

// BenchmarkParallelIO compares the single-file baseline with the
// subfile-partitioned strategy (§5.2.5).
func BenchmarkParallelIO(b *testing.B) {
	const nGlobal = 1 << 18
	const ranks = 8
	mkFields := func(c *par.Comm) []pario.Field {
		per := nGlobal / c.Size()
		start := c.Rank() * per
		data := make([]float64, per)
		for i := range data {
			data[i] = float64(start + i)
		}
		return []pario.Field{{Name: "t", Global: nGlobal, Start: start, Data: data}}
	}
	b.Run("single-file", func(b *testing.B) {
		dir := b.TempDir()
		par.Run(ranks, func(c *par.Comm) {
			for i := 0; i < b.N; i++ {
				if err := pario.WriteSingle(c, fmt.Sprintf("%s/r%d.bin", dir, i%4), mkFields(c)); err != nil {
					b.Fatal(err)
				}
			}
		})
	})
	b.Run("subfiles-4groups", func(b *testing.B) {
		dir := b.TempDir()
		par.Run(ranks, func(c *par.Comm) {
			for i := 0; i < b.N; i++ {
				if err := pario.WriteSubfiles(c, dir, 4, mkFields(c)); err != nil {
					b.Fatal(err)
				}
			}
		})
	})
}

// BenchmarkPortabilityBackends runs the same axpy-like kernel through every
// execution space (§5.3) and the hash-registry dispatch.
func BenchmarkPortabilityBackends(b *testing.B) {
	const n = 1 << 20
	x := make([]float64, n)
	y := make([]float64, n)
	rng := rand.New(rand.NewSource(9))
	for i := range x {
		x[i] = rng.Float64()
	}
	kernel := func(sp pp.Space) {
		sp.ParallelFor(n, func(i int) { y[i] = 2.5*x[i] + y[i] })
	}
	for _, sp := range []pp.Space{pp.Serial{}, pp.NewHost(0), pp.NewCPE(256)} {
		b.Run(sp.Name(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				kernel(sp)
			}
		})
	}
	b.Run("hash-registry-dispatch", func(b *testing.B) {
		reg := pp.NewRegistry()
		h := reg.MustRegister("bench.axpy", func(sp pp.Space, args any) { kernel(sp) })
		sp := pp.NewHost(0)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := reg.Launch(h, sp, nil); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkTaskLayouts evaluates the §5.1.2 task-parallel strategies on the
// calibrated model: sequential single-domain vs concurrent two-domain with
// the optimized resource split (the paper's production layout).
func BenchmarkTaskLayouts(b *testing.B) {
	m := newModel(b)
	atm := m.MustCurve(perfmodel.CurveATM3CPE)
	ocn := m.MustCurve(perfmodel.CurveOCN2CPE)
	cores := 3.0e7
	cpl := perfmodel.ImpliedCouplerTime(m.MustCurve(perfmodel.CurveESM3v2), atm, ocn, cores)
	var seq, conc perfmodel.LayoutResult
	for i := 0; i < b.N; i++ {
		seq = perfmodel.SequentialLayout(atm, ocn, cores, cpl)
		var err error
		conc, err = perfmodel.OptimalSplit(atm, ocn, cores, cpl)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(seq.SYPD, "sequential-SYPD")
	b.ReportMetric(conc.SYPD, "concurrent-SYPD")
	b.ReportMetric(conc.AtmFraction, "atm-share")
	b.Logf("sequential %.3f SYPD; concurrent %.3f SYPD at atm share %.2f (fitted 3v2 curve: %.3f)",
		seq.SYPD, conc.SYPD, conc.AtmFraction, m.MustCurve(perfmodel.CurveESM3v2).SYPD(cores))
}

// BenchmarkCoupledESM measures the miniature coupled model's real SYPD, the
// same metric and measurement the paper uses (§6.2), on the 25v10-mapped
// configuration.
func BenchmarkCoupledESM(b *testing.B) {
	par.Run(1, func(c *par.Comm) {
		cfg, err := core.ConfigForLabel("25v10")
		if err != nil {
			b.Fatal(err)
		}
		start := time.Date(2023, 7, 21, 0, 0, 0, 0, time.UTC)
		e, err := core.NewWithOptions(cfg, c, core.WithInterval(start, start.Add(1000*time.Hour)), core.WithSpace(pp.NewHost(0)))
		if err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		var sypd float64
		for i := 0; i < b.N; i++ {
			s, err := e.MeasureSYPD(5)
			if err != nil {
				b.Fatal(err)
			}
			sypd = s
		}
		b.ReportMetric(sypd, "SYPD")
	})
}
