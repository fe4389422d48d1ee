package core

import (
	"errors"
	"math"
	"runtime"
	"testing"
	"time"

	"repro/internal/grid"
	"repro/internal/ocean"
	"repro/internal/par"
	"repro/internal/pp"
	"repro/internal/precision"
	"repro/internal/typhoon"
)

func TestConfigurationCatalog(t *testing.T) {
	cfgs := Configurations()
	if len(cfgs) != 5 {
		t.Fatalf("%d configurations", len(cfgs))
	}
	labels := map[string]bool{}
	for _, c := range cfgs {
		labels[c.Label] = true
		if c.AtmCouplingsPerDay != 180 || c.OcnCouplingsPerDay != 36 || c.IceCouplingsPerDay != 180 {
			t.Errorf("%s: coupling cadence %d/%d/%d, want 180/36/180",
				c.Label, c.AtmCouplingsPerDay, c.OcnCouplingsPerDay, c.IceCouplingsPerDay)
		}
		if c.OcnNX%2 != 0 {
			t.Errorf("%s: odd ocean nx", c.Label)
		}
	}
	for _, want := range []string{"1v1", "3v2", "6v3", "10v5", "25v10"} {
		if !labels[want] {
			t.Errorf("missing %s", want)
		}
	}
	if _, err := ConfigForLabel("2v2"); err == nil {
		t.Error("bogus label accepted")
	}
	c, err := ConfigForLabel("3v2")
	if err != nil || c.PaperAtmKm != 3 || c.PaperOcnKm != 2 {
		t.Errorf("3v2 lookup: %+v, %v", c, err)
	}
}

func newESM(t *testing.T, label string, c *par.Comm, days float64) *ESM {
	t.Helper()
	cfg, err := ConfigForLabel(label)
	if err != nil {
		t.Fatal(err)
	}
	start := time.Date(2023, 7, 21, 0, 0, 0, 0, time.UTC)
	stop := start.Add(time.Duration(days * 24 * float64(time.Hour)))
	e, err := NewWithOptions(cfg, c, WithInterval(start, stop), WithSpace(pp.Serial{}))
	if err != nil {
		t.Fatal(err)
	}
	return e
}

// More ranks than atmosphere cells would leave a rank owning no column:
// assembly refuses on every rank with the typed error, before any collective
// a rank could hang in.
func TestAssembleRejectsMoreRanksThanCells(t *testing.T) {
	cfg, err := ConfigForLabel("25v10")
	if err != nil {
		t.Fatal(err)
	}
	cfg.AtmLevel = 0 // 12 cells
	const ranks = 13
	par.Run(ranks, func(c *par.Comm) {
		_, err := NewWithOptions(cfg, c)
		var re *RanksExceedCellsError
		if !errors.As(err, &re) || re.Ranks != ranks || re.Cells != 12 {
			t.Errorf("rank %d: err = %v, want RanksExceedCellsError{%d, 12}", c.Rank(), err, ranks)
		}
	})
}

// The rank check precedes every grid: a rejected assembly allocates next to
// nothing per rank, where building each rank's atmosphere and ocean first
// would cost hundreds of kilobytes each (a whole model per rank, at a
// -ranks just above the cell count).
func TestRejectedAssemblyBuildsNoGrid(t *testing.T) {
	cfg, err := ConfigForLabel("25v10")
	if err != nil {
		t.Fatal(err)
	}
	cfg.AtmLevel = 2 // 162 cells
	const ranks = 163
	allocated := func(body func(c *par.Comm)) uint64 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		par.Run(ranks, body)
		runtime.ReadMemStats(&after)
		return after.TotalAlloc - before.TotalAlloc
	}
	base := allocated(func(*par.Comm) {})
	got := allocated(func(c *par.Comm) {
		var re *RanksExceedCellsError
		if _, err := NewWithOptions(cfg, c); !errors.As(err, &re) {
			t.Errorf("rank %d: err = %v, want RanksExceedCellsError", c.Rank(), err)
		}
	})
	const perRank = 16 << 10
	if got > base+ranks*perRank {
		t.Errorf("rejected assembly allocated %d B over %d ranks (%d B for the bare run), want under %d B a rank",
			got, ranks, base, perRank)
	}
}

func TestRegridderMapsAreTotal(t *testing.T) {
	mesh, _ := grid.NewIcosMesh(3)
	g, _ := grid.NewTripolar(48, 24, 5)
	r := NewRegridder(mesh, g)
	for gi, ac := range r.OcnToAtm {
		if ac < 0 || ac >= mesh.NCells() {
			t.Fatalf("ocean column %d maps to invalid atm cell %d", gi, ac)
		}
	}
	wet := 0
	for c, oc := range r.AtmToOcn {
		if oc >= g.NX*g.NY {
			t.Fatalf("atm cell %d maps out of range", c)
		}
		if oc >= 0 {
			if !g.Wet(oc) {
				t.Fatalf("atm cell %d maps to land column", c)
			}
			wet++
		}
	}
	if wet < mesh.NCells()/2 {
		t.Errorf("only %d/%d atm cells find ocean columns", wet, mesh.NCells())
	}
	// Spot-check geometric sanity: a mapped pair is within a few grid cells.
	for c := 0; c < mesh.NCells(); c += 97 {
		oc := r.AtmToOcn[c]
		if oc < 0 {
			continue
		}
		oj, oi := oc/g.NX, oc%g.NX
		d := typhoon.GreatCircleKm(
			mesh.LonCell[c]*180/math.Pi, mesh.LatCell[c]*180/math.Pi,
			g.Lon[oi]*180/math.Pi, g.Lat[oj]*180/math.Pi)
		if d > 3000 {
			t.Errorf("atm cell %d mapped %f km away", c, d)
		}
	}
}

func TestCoupledQuickstartRuns(t *testing.T) {
	par.Run(1, func(c *par.Comm) {
		e := newESM(t, "25v10", c, 1)
		// One simulated day = 180 coupling steps.
		n := e.RunDays(0.25)
		if n != 45 {
			t.Errorf("ran %d coupling steps, want 45", n)
		}
		if e.SimulatedSeconds() != 45*480 {
			t.Errorf("simulated %v s", e.SimulatedSeconds())
		}
		// Everything stays finite and physical.
		if w := e.Atm.MaxWind(); math.IsNaN(w) || w > 200 {
			t.Errorf("atm max wind %v", w)
		}
		if v := e.Ocn.MaxSurfaceSpeed(); math.IsNaN(v) || v > 10 {
			t.Errorf("ocean max speed %v", v)
		}
		if e.Ice.IceArea() < 0 {
			t.Error("negative ice area")
		}
		// The atmosphere must have received a real SST pattern: warm
		// tropics, cold poles.
		var warm, cold float64
		var nw, ncold int
		for c2 := 0; c2 < e.Atm.Mesh.NCells(); c2++ {
			if e.Atm.IsLand[c2] {
				continue
			}
			lat := math.Abs(e.Atm.Mesh.LatCell[c2])
			if lat < 0.3 {
				warm += e.Atm.SST[c2]
				nw++
			} else if lat > 1.2 {
				cold += e.Atm.SST[c2]
				ncold++
			}
		}
		if nw > 0 && ncold > 0 && warm/float64(nw) <= cold/float64(ncold) {
			t.Error("tropical SST not warmer than polar SST after coupling")
		}
	})
}

func TestAirSeaCouplingTransfersMomentum(t *testing.T) {
	par.Run(1, func(c *par.Comm) {
		e := newESM(t, "25v10", c, 2)
		ke0 := e.Ocn.SurfaceKineticEnergy()
		e.RunDays(1)
		ke1 := e.Ocn.SurfaceKineticEnergy()
		if ke1 <= ke0 {
			t.Errorf("atmosphere did not spin up the ocean: KE %v -> %v", ke0, ke1)
		}
	})
}

// The surface the atmosphere reads — the exported SST and ice fraction, and
// the land skin temperature — on one rank and on four.
func TestCoupledSerialParallelAgreement(t *testing.T) {
	run := func(n int) (sst, ice []float64) {
		par.Run(n, func(c *par.Comm) {
			e := newESM(t, "25v10", c, 1)
			e.RunDays(0.1)
			s, i := e.Atm.SST, e.Atm.IceFrac
			if d := e.Atm.Decomp(); d != nil {
				s, i = d.Gather(s), d.Gather(i)
			}
			if c.Rank() == 0 {
				sst, ice = s, i
			}
		})
		return sst, ice
	}
	refSST, refIce := run(1)
	gotSST, gotIce := run(4)
	for _, f := range []struct {
		name     string
		ref, got []float64
	}{{"Atm.SST", refSST, gotSST}, {"Atm.IceFrac", refIce, gotIce}} {
		if len(f.ref) == 0 || len(f.got) != len(f.ref) {
			t.Fatalf("missing %s", f.name)
		}
		for i := range f.ref {
			if math.Abs(f.ref[i]-f.got[i]) > 1e-10 {
				t.Fatalf("%s[%d]: serial %v vs 4 ranks %v", f.name, i, f.ref[i], f.got[i])
			}
		}
	}
}

func TestMixedPrecisionCoupledRun(t *testing.T) {
	par.Run(1, func(c *par.Comm) {
		cfg, _ := ConfigForLabel("25v10")
		cfg.Policy = precision.Mixed
		start := time.Date(2023, 7, 21, 0, 0, 0, 0, time.UTC)
		e, err := NewWithOptions(cfg, c, WithInterval(start, start.Add(24*time.Hour)), WithSpace(pp.Serial{}))
		if err != nil {
			t.Fatal(err)
		}
		e.RunDays(0.1)
		if v := e.Ocn.MaxSurfaceSpeed(); math.IsNaN(v) {
			t.Error("mixed-precision coupled run produced NaN")
		}
	})
}

func TestDoksuriForecastExperiment(t *testing.T) {
	par.Run(1, func(c *par.Comm) {
		e := newESM(t, "10v5", c, 2)
		if err := typhoon.Seed(e.Atm, typhoon.DoksuriSeed()); err != nil {
			t.Fatal(err)
		}
		start := e.Clock.Current
		seed := typhoon.DoksuriSeed()
		prev := typhoon.Fix{Time: start, LonDeg: seed.LonDeg, LatDeg: seed.LatDeg}
		var fixes []typhoon.Fix
		// Track 6-hourly over half a simulated day, searching near the
		// previous fix as real trackers do.
		for h := 0; h < 2; h++ {
			for s := 0; s < 45; s++ {
				if !e.Step() {
					t.Fatal("clock exhausted")
				}
			}
			fix, err := typhoon.FindCenterNear(e.Atm, start.Add(time.Duration(h+1)*6*time.Hour), prev, 1200, 800)
			if err != nil {
				t.Fatal(err)
			}
			fixes = append(fixes, fix)
			prev = fix
		}
		// The storm persists as a coherent depression.
		last := fixes[len(fixes)-1]
		if last.PressPa > 99950 {
			t.Errorf("storm lost: central pressure %v", last.PressPa)
		}
		// Track error against the best track is finite and not absurd for
		// a half-day coarse forecast.
		errKm, err := typhoon.TrackError(fixes, typhoon.BestTrackDoksuri())
		if err != nil {
			t.Fatal(err)
		}
		if errKm > 2500 {
			t.Errorf("track error %v km", errKm)
		}
	})
}

func TestTimingReport(t *testing.T) {
	par.Run(2, func(c *par.Comm) {
		e := newESM(t, "25v10", c, 1)
		e.RunDays(0.1) // 18 coupling steps
		rows := e.TimingReport()
		if len(rows) != 3 {
			t.Fatalf("%d timing sections, want atm/ice/ocn", len(rows))
		}
		byName := map[string]TimingRow{}
		var totalFrac float64
		for _, r := range rows {
			byName[r.Section] = r
			totalFrac += r.Fraction
			if r.MaxWall <= 0 || r.SYPD <= 0 {
				t.Fatalf("section %s: wall %v, sypd %v", r.Section, r.MaxWall, r.SYPD)
			}
		}
		if math.Abs(totalFrac-1) > 1e-9 {
			t.Errorf("fractions sum to %v", totalFrac)
		}
		// Coupling cadence: 18 atm and ice calls, 3-4 ocean calls.
		if byName["atm"].Calls != 18 || byName["ice"].Calls != 18 {
			t.Errorf("atm/ice calls %d/%d", byName["atm"].Calls, byName["ice"].Calls)
		}
		if byName["ocn"].Calls < 3 || byName["ocn"].Calls > 4 {
			t.Errorf("ocn calls %d", byName["ocn"].Calls)
		}
		if c.Rank() == 0 {
			out := FormatTiming(rows)
			if len(out) == 0 {
				t.Error("empty report")
			}
		}
	})
}

// The paper: "The coupled models also reproduce the sea surface temperature
// cold trails following typhoon passage." The wake has two drivers — the
// storm's enhanced turbulent heat loss, and wind-driven entrainment of cold
// thermocline water. At this reproduction's resolution the full SST signal
// is below dynamic noise (the paper needed its 3v2 configuration too), so
// the test asserts each mechanism directly: (1) in the coupled run, the net
// surface heat flux into the ocean under the storm is lower than in a
// control run; (2) in an ocean-only run, typhoon-strength stress plus
// Richardson mixing cools the surface under the storm relative to a
// no-mixing run.
func TestTyphoonColdWakeMechanisms(t *testing.T) {
	start := time.Date(2023, 7, 21, 0, 0, 0, 0, time.UTC)
	cfg, _ := ConfigForLabel("10v5")
	cfg.OcnCfg.RiMixing = true

	// --- (1) Coupled: storm reduces the net heat flux into the ocean ---
	boxFlux := func(seed bool) float64 {
		var q float64
		par.Run(1, func(c *par.Comm) {
			e, err := NewWithOptions(cfg, c, WithInterval(start, start.Add(48*time.Hour)), WithSpace(pp.Serial{}))
			if err != nil {
				t.Fatal(err)
			}
			if seed {
				sc := typhoon.DoksuriSeed()
				sc.Moisten = false
				sc.DeltaPs = 2500
				if err := typhoon.Seed(e.Atm, sc); err != nil {
					t.Fatal(err)
				}
			}
			for i := 0; i < 45; i++ { // 6 simulated hours
				e.Step()
			}
			g := e.Ocn.G
			b := e.Ocn.B
			var n int
			for lj := 0; lj < b.NJ; lj++ {
				for li := 0; li < b.NI; li++ {
					gi := b.GIdx(li, lj)
					if !g.Wet(gi) {
						continue
					}
					j, i2 := gi/g.NX, gi%g.NX
					if math.Abs(g.Lon[i2]*180/math.Pi-131.5) < 8 &&
						math.Abs(g.Lat[j]*180/math.Pi-14.0) < 8 {
						q += e.Ocn.QHeat[e.ocnIdx2(li, lj)]
						n++
					}
				}
			}
			q /= float64(n)
		})
		return q
	}
	qControl := boxFlux(false)
	qStorm := boxFlux(true)
	if qStorm >= qControl {
		t.Errorf("storm did not enhance ocean heat loss: q %-.1f (storm) vs %-.1f (control) W/m2",
			qStorm, qControl)
	}

	// --- (2) Ocean-only: mixing entrains cold water under storm winds ---
	surfUnderStorm := func(mix bool) float64 {
		var mean float64
		g, err := grid.NewTripolar(72, 36, 10)
		if err != nil {
			t.Fatal(err)
		}
		par.Run(1, func(c *par.Comm) {
			b, _ := grid.NewTripolarDecomp(g, c, 1)
			oc := cfg.OcnCfg
			oc.RiMixing = mix
			o, err := ocean.New(g, b, oc, pp.Serial{})
			if err != nil {
				t.Fatal(err)
			}
			// Rotating typhoon-strength stress patch near (131.5E, 14N).
			for lj := 0; lj < b.NJ; lj++ {
				for li := 0; li < b.NI; li++ {
					dLon := g.Lon[li] - 131.5*math.Pi/180
					dLat := g.Lat[b.J0+lj] - 14*math.Pi/180
					r := math.Hypot(dLon, dLat)
					if r > 1e-9 && r < 0.25 {
						sMag := 2.5 * (r / 0.08) * math.Exp(1-(r/0.08)*(r/0.08))
						idx := b.LIdx(li, lj)
						o.TauX[idx] = -sMag * dLat / r
						o.TauY[idx] = sMag * dLon / r
					}
				}
			}
			for s := 0; s < 72; s++ { // 24 simulated hours
				o.Step()
			}
			var n int
			for lj := 0; lj < b.NJ; lj++ {
				for li := 0; li < b.NI; li++ {
					gi := b.GIdx(li, lj)
					if !g.Wet(gi) {
						continue
					}
					j, i2 := gi/g.NX, gi%g.NX
					if math.Abs(g.Lon[i2]*180/math.Pi-131.5) < 8 &&
						math.Abs(g.Lat[j]*180/math.Pi-14.0) < 8 {
						mean += o.T[e2idx(o, li, lj)]
						n++
					}
				}
			}
			mean /= float64(n)
		})
		return mean
	}
	tNoMix := surfUnderStorm(false)
	tMix := surfUnderStorm(true)
	if tMix >= tNoMix {
		t.Errorf("no entrainment cooling: SST %.4f (mixing) vs %.4f (no mixing)", tMix, tNoMix)
	}
}

// e2idx mirrors the ocean's local indexing for test reads.
func e2idx(o *ocean.Ocean, li, lj int) int {
	return (lj+o.B.H)*o.LNI + li + o.B.H
}
