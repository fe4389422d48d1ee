package ocean

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"repro/internal/grid"
	"repro/internal/par"
	"repro/internal/pp"
	"repro/internal/precision"
)

// testOcean builds a small serial ocean (one rank) for unit tests.
func testOcean(t *testing.T, nx, ny, nl int, cfg Config) *Ocean {
	t.Helper()
	g, err := grid.NewTripolar(nx, ny, nl)
	if err != nil {
		t.Fatal(err)
	}
	var oc *Ocean
	par.Run(1, func(c *par.Comm) {
		b, err := grid.NewTripolarDecomp(g, c, 1)
		if err != nil {
			t.Fatal(err)
		}
		oc, err = New(g, b, cfg, pp.Serial{})
		if err != nil {
			t.Fatal(err)
		}
	})
	return oc
}

// runSerial executes f on a fresh single-rank ocean.
func runSerial(t *testing.T, nx, ny, nl int, cfg Config, f func(o *Ocean)) {
	t.Helper()
	g, err := grid.NewTripolar(nx, ny, nl)
	if err != nil {
		t.Fatal(err)
	}
	par.Run(1, func(c *par.Comm) {
		b, err := grid.NewTripolarDecomp(g, c, 1)
		if err != nil {
			t.Error(err)
			return
		}
		o, err := New(g, b, cfg, pp.Serial{})
		if err != nil {
			t.Error(err)
			return
		}
		f(o)
	})
}

func TestNewValidation(t *testing.T) {
	g, _ := grid.NewTripolar(24, 12, 5)
	par.Run(1, func(c *par.Comm) {
		b, _ := grid.NewTripolarDecomp(g, c, 1)
		bad := DefaultConfig()
		bad.DtBaroclinic = 0
		if _, err := New(g, b, bad, nil); err == nil {
			t.Error("zero dt accepted")
		}
		// Mixed with no group size used to pass construction and panic in the
		// first step's quantization.
		for _, group := range []int{0, -8} {
			mixed := DefaultConfig()
			mixed.Policy, mixed.PrecisionGroup = precision.Mixed, group
			want := fmt.Sprintf("PrecisionGroup values, got %d", group)
			if _, err := New(g, b, mixed, nil); err == nil || !strings.Contains(err.Error(), want) {
				t.Errorf("Mixed with group %d: error %v, want one containing %q", group, err, want)
			}
		}
		// The group size is the Mixed policy's alone.
		fp64 := DefaultConfig()
		fp64.PrecisionGroup = 0
		if _, err := New(g, b, fp64, nil); err != nil {
			t.Errorf("FP64 ocean with no group size rejected: %v", err)
		}
	})
}

func TestInitialStateSane(t *testing.T) {
	runSerial(t, 48, 24, 10, DefaultConfig(), func(o *Ocean) {
		for lj := 0; lj < o.B.NJ; lj++ {
			for li := 0; li < o.B.NI; li++ {
				c := o.idx2(li, lj)
				if !o.maskT[c] {
					if o.T[c] != 0 {
						t.Fatal("land cell has temperature")
					}
					continue
				}
				if o.T[c] < -3 || o.T[c] > 32 {
					t.Fatalf("surface T = %v out of range", o.T[c])
				}
				// Stratification: deepest active level colder than surface.
				kb := o.kmt[c] - 1
				if kb > 0 {
					n2 := o.LNI * o.LNJ
					if o.T[kb*n2+c] > o.T[c]+1e-9 {
						t.Fatalf("unstable initial stratification at (%d,%d)", li, lj)
					}
				}
			}
		}
	})
}

func TestRestingOceanStaysAtRest(t *testing.T) {
	// With no forcing, a horizontally-uniform... the analytic init varies
	// with latitude, so currents develop; but with zero wind and flat SSH the
	// first step's barotropic velocities stay tiny, and no NaNs appear.
	runSerial(t, 48, 24, 8, DefaultConfig(), func(o *Ocean) {
		for s := 0; s < 5; s++ {
			o.Step()
		}
		if o.Steps() != 5 {
			t.Fatalf("steps = %d", o.Steps())
		}
		if v := o.MaxSurfaceSpeed(); math.IsNaN(v) || v > 5 {
			t.Fatalf("max speed %v after 5 unforced steps", v)
		}
	})
}

func TestTracerConservationWithoutForcing(t *testing.T) {
	cfg := DefaultConfig()
	runSerial(t, 48, 24, 8, cfg, func(o *Ocean) {
		t0 := tracerContent(o, o.T)
		s0 := tracerContent(o, o.S)
		// Spin up some flow with wind so advection is non-trivial.
		for lj := 0; lj < o.B.NJ; lj++ {
			for li := 0; li < o.B.NI; li++ {
				o.TauX[o.idx2(li, lj)] = 0.1
			}
		}
		for s := 0; s < 10; s++ {
			o.Step()
		}
		t1 := tracerContent(o, o.T)
		s1 := tracerContent(o, o.S)
		if rel := math.Abs(t1-t0) / math.Abs(t0); rel > 1e-12 {
			t.Errorf("heat content drift %.3e", rel)
		}
		if rel := math.Abs(s1-s0) / math.Abs(s0); rel > 1e-12 {
			t.Errorf("salt content drift %.3e", rel)
		}
	})
}

func TestVolumeConservation(t *testing.T) {
	runSerial(t, 48, 24, 8, DefaultConfig(), func(o *Ocean) {
		m0 := o.MeanSSH()
		for lj := 0; lj < o.B.NJ; lj++ {
			for li := 0; li < o.B.NI; li++ {
				o.TauX[o.idx2(li, lj)] = 0.08
				o.TauY[o.idx2(li, lj)] = -0.03
			}
		}
		for s := 0; s < 10; s++ {
			o.Step()
		}
		m1 := o.MeanSSH()
		if math.Abs(m1-m0) > 1e-9 {
			t.Errorf("mean SSH drifted %v -> %v", m0, m1)
		}
	})
}

func TestSurfaceHeatingWarmsOcean(t *testing.T) {
	runSerial(t, 48, 24, 6, DefaultConfig(), func(o *Ocean) {
		t0 := tracerContent(o, o.T)
		for lj := 0; lj < o.B.NJ; lj++ {
			for li := 0; li < o.B.NI; li++ {
				o.QHeat[o.idx2(li, lj)] = 200 // W/m²
			}
		}
		for s := 0; s < 5; s++ {
			o.Step()
		}
		t1 := tracerContent(o, o.T)
		if t1 <= t0 {
			t.Errorf("heat content did not rise: %v -> %v", t0, t1)
		}
		// Energy bookkeeping: dHeat = Q·A_wet·dt/(rho0·cp) in tracer units.
		var wetArea float64
		for lj := 0; lj < o.B.NJ; lj++ {
			jg := o.B.J0 + lj
			for li := 0; li < o.B.NI; li++ {
				if o.maskT[o.idx2(li, lj)] {
					wetArea += o.G.DX[jg] * o.G.DY
				}
			}
		}
		want := 200 * wetArea * 5 * o.Cfg.DtBaroclinic / (Rho0 * Cp)
		got := t1 - t0
		if math.Abs(got-want)/want > 1e-9 {
			t.Errorf("heating bookkeeping: got %v, want %v", got, want)
		}
	})
}

func TestWindDrivesCurrents(t *testing.T) {
	runSerial(t, 48, 24, 6, DefaultConfig(), func(o *Ocean) {
		ke0 := o.SurfaceKineticEnergy()
		for lj := 0; lj < o.B.NJ; lj++ {
			for li := 0; li < o.B.NI; li++ {
				o.TauX[o.idx2(li, lj)] = 0.1
			}
		}
		for s := 0; s < 10; s++ {
			o.Step()
		}
		ke1 := o.SurfaceKineticEnergy()
		if ke1 <= ke0 {
			t.Errorf("wind did not energize: %v -> %v", ke0, ke1)
		}
		if v := o.MaxSurfaceSpeed(); v > 10 || math.IsNaN(v) {
			t.Errorf("unstable: max speed %v", v)
		}
	})
}

func TestStabilityLongerRun(t *testing.T) {
	if testing.Short() {
		t.Skip("long run")
	}
	runSerial(t, 72, 36, 10, DefaultConfig(), func(o *Ocean) {
		for lj := 0; lj < o.B.NJ; lj++ {
			jg := o.B.J0 + lj
			for li := 0; li < o.B.NI; li++ {
				// Idealized zonal wind pattern (trades/westerlies).
				o.TauX[o.idx2(li, lj)] = -0.1 * math.Cos(3*o.G.Lat[jg])
			}
		}
		for s := 0; s < 50; s++ {
			o.Step()
		}
		if v := o.MaxSurfaceSpeed(); math.IsNaN(v) || v > 10 {
			t.Fatalf("max speed %v after 50 steps", v)
		}
		// Something moves.
		if o.SurfaceKineticEnergy() <= 0 {
			t.Fatal("no circulation developed")
		}
	})
}

// The distributed run must agree with the serial run: same grid, same
// forcing, different process layouts.
func TestSerialParallelEquivalence(t *testing.T) {
	g, err := grid.NewTripolar(24, 12, 4)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.DtBaroclinic = 600

	run := func(px, py int) (tGlob, etaGlob []float64) {
		par.Run(px*py, func(c *par.Comm) {
			b, err := grid.NewTripolarDecompLayout(g, c, px, py, 1)
			if err != nil {
				t.Error(err)
				return
			}
			o, err := New(g, b, cfg, pp.Serial{})
			if err != nil {
				t.Error(err)
				return
			}
			for lj := 0; lj < b.NJ; lj++ {
				for li := 0; li < b.NI; li++ {
					gi := b.GIdx(li, lj)
					o.TauX[o.idx2(li, lj)] = 0.05 * math.Sin(float64(gi))
				}
			}
			for s := 0; s < 3; s++ {
				o.Step()
			}
			tg := o.B.GatherGlobal(o.T[:o.LNI*o.LNJ])
			eg := o.B.GatherGlobal(o.Eta)
			if c.Rank() == 0 {
				tGlob, etaGlob = tg, eg
			}
		})
		return
	}
	tRef, eRef := run(1, 1)
	for _, layout := range [][2]int{{2, 2}, {4, 1}, {2, 3}} {
		tGot, eGot := run(layout[0], layout[1])
		for i := range tRef {
			if math.Abs(tGot[i]-tRef[i]) > 1e-11 {
				t.Fatalf("layout %v: T[%d] = %v vs serial %v", layout, i, tGot[i], tRef[i])
			}
			if math.Abs(eGot[i]-eRef[i]) > 1e-11 {
				t.Fatalf("layout %v: eta[%d] = %v vs serial %v", layout, i, eGot[i], eRef[i])
			}
		}
	}
}

// §5.2.2: the compacted sweep must produce identical results to the full
// sweep while doing ~30 % less work.
func TestCompactionConsistency(t *testing.T) {
	runSerial(t, 72, 36, 20, DefaultConfig(), func(o *Ocean) {
		for lj := 0; lj < o.B.NJ; lj++ {
			for li := 0; li < o.B.NI; li++ {
				o.TauX[o.idx2(li, lj)] = 0.1
			}
		}
		for s := 0; s < 3; s++ {
			o.Step() // develop structure
		}
		o.B.ExchangeFields([]grid.HaloField{
			{Data: o.T, NLev: o.NL}, {Data: o.U, NLev: o.NL, Vec: true}, {Data: o.V, NLev: o.NL, Vec: true},
		})

		full := o.advectDiffuse(o.T, o.Cfg.DtBaroclinic, o.QHeat, o.surfTDen())
		comp := o.Compact().AdvectDiffuse(o.T, o.Cfg.DtBaroclinic, o.QHeat, o.surfTDen())
		for i := range full {
			if full[i] != comp[i] {
				t.Fatalf("compacted result differs at %d: %v vs %v", i, comp[i], full[i])
			}
		}
	})
}

func TestCompactionSavings(t *testing.T) {
	runSerial(t, 144, 72, 30, DefaultConfig(), func(o *Ocean) {
		c := o.Compact()
		if c.NWet() == 0 {
			t.Fatal("no wet columns")
		}
		s2 := c.WorkSaving()
		s3 := c.WorkSaving3D()
		// Surface land fraction ~29 %, 3-D saving a bit larger.
		if s2 < 0.2 || s2 > 0.45 {
			t.Errorf("2-D saving %.3f", s2)
		}
		if s3 < s2 || s3 > 0.5 {
			t.Errorf("3-D saving %.3f (2-D %.3f)", s3, s2)
		}
	})
	g, _ := grid.NewTripolar(144, 72, 30)
	if s := ResourceSaving(g); s < 0.25 || s > 0.45 {
		t.Errorf("resource saving %.3f, paper ~0.30", s)
	}
}

func TestBalancedOwnerImprovesLoadBalance(t *testing.T) {
	g, _ := grid.NewTripolar(96, 48, 20)
	const p = 16
	block, err := BlockOwner(g, 4, 4)
	if err != nil {
		t.Fatal(err)
	}
	bal := BalancedOwner(g, p)
	ibBlock := block.LoadImbalance(g)
	ibBal := bal.LoadImbalance(g)
	if ibBal >= ibBlock {
		t.Errorf("balanced imbalance %.3f not better than block %.3f", ibBal, ibBlock)
	}
	if ibBal > 1.25 {
		t.Errorf("balanced imbalance %.3f too high", ibBal)
	}
	// Every wet column owned, every land column unowned.
	for idx, pe := range bal.Owner {
		if g.Wet(idx) != (pe >= 0) {
			t.Fatalf("ownership/mask mismatch at %d", idx)
		}
		if pe >= p {
			t.Fatalf("rank %d out of range", pe)
		}
	}
}

func TestHaloNeighborsSymmetricAndSmall(t *testing.T) {
	g, _ := grid.NewTripolar(96, 48, 10)
	co := BalancedOwner(g, 12)
	nb := co.HaloNeighbors(g)
	for a, list := range nb {
		for _, b := range list {
			found := false
			for _, back := range nb[b] {
				if back == a {
					found = true
				}
			}
			if !found {
				t.Fatalf("asymmetric neighbour relation %d -> %d", a, b)
			}
			if b == a {
				t.Fatal("self neighbour")
			}
		}
	}
	// Snake ordering keeps the communication graph sparse: average degree
	// far below all-to-all.
	total := 0
	for _, list := range nb {
		total += len(list)
	}
	if avg := float64(total) / 12; avg > 8 {
		t.Errorf("average neighbour degree %.1f too high", avg)
	}
}

func TestBlockOwnerValidation(t *testing.T) {
	g, _ := grid.NewTripolar(96, 48, 10)
	if _, err := BlockOwner(g, 5, 1); err == nil {
		t.Error("non-divisible layout accepted")
	}
}

// §5.2.3: mixed precision tracks the FP64 baseline within the paper's
// reported RMSD magnitudes.
func TestMixedPrecisionRMSD(t *testing.T) {
	run := func(pol precision.Policy) (tt, ss, ee, area []float64, mask []bool) {
		g, _ := grid.NewTripolar(48, 24, 6)
		par.Run(1, func(c *par.Comm) {
			b, _ := grid.NewTripolarDecomp(g, c, 1)
			cfg := DefaultConfig()
			cfg.Policy = pol
			o, _ := New(g, b, cfg, pp.Serial{})
			for lj := 0; lj < b.NJ; lj++ {
				for li := 0; li < b.NI; li++ {
					o.TauX[o.idx2(li, lj)] = 0.1
				}
			}
			for s := 0; s < 20; s++ {
				o.Step()
			}
			tt = o.surfaceOwned(o.T)
			ss = o.surfaceOwned(o.S)
			ee = o.surfaceOwned(o.Eta)
			mask = make([]bool, len(tt))
			area = make([]float64, len(tt))
			for lj := 0; lj < b.NJ; lj++ {
				jg := b.J0 + lj
				for li := 0; li < b.NI; li++ {
					mask[lj*b.NI+li] = o.maskT[o.idx2(li, lj)]
					area[lj*b.NI+li] = g.DX[jg] * g.DY
				}
			}
		})
		return
	}
	t64, s64, e64, area, mask := run(precision.FP64)
	t32, s32, e32, _, _ := run(precision.Mixed)

	rmsdT, err := precision.MaskedAreaRMSD(t32, t64, area, mask)
	if err != nil {
		t.Fatal(err)
	}
	rmsdS, _ := precision.MaskedAreaRMSD(s32, s64, area, mask)
	rmsdE, _ := precision.MaskedAreaRMSD(e32, e64, area, mask)
	th := precision.PaperThresholds()
	if rmsdT > th.OceanTempC {
		t.Errorf("T RMSD %.4g exceeds paper's %.4g", rmsdT, th.OceanTempC)
	}
	if rmsdS > th.OceanSaltPSU {
		t.Errorf("S RMSD %.4g exceeds paper's %.4g", rmsdS, th.OceanSaltPSU)
	}
	if rmsdE > th.OceanSSHm {
		t.Errorf("SSH RMSD %.4g exceeds paper's %.4g", rmsdE, th.OceanSSHm)
	}
	// The mixed run must actually differ (it really ran in FP32).
	same := true
	for i := range t64 {
		if t32[i] != t64[i] {
			same = false
			break
		}
	}
	if same {
		t.Error("mixed-precision run identical to FP64 — quantization did not happen")
	}
}

func TestSurfaceRossbyFiniteAndMasked(t *testing.T) {
	runSerial(t, 48, 24, 6, DefaultConfig(), func(o *Ocean) {
		for lj := 0; lj < o.B.NJ; lj++ {
			for li := 0; li < o.B.NI; li++ {
				o.TauX[o.idx2(li, lj)] = 0.1
			}
		}
		for s := 0; s < 5; s++ {
			o.Step()
		}
		ro := o.SurfaceRossby()
		if len(ro) != o.B.NJ*o.B.NI {
			t.Fatal("wrong size")
		}
		for i, v := range ro {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				t.Fatalf("Ro[%d] = %v", i, v)
			}
		}
	})
}

func TestRhoEOS(t *testing.T) {
	if Rho(TRef, SRef) != 0 {
		t.Error("reference density not zero anomaly")
	}
	if Rho(TRef+1, SRef) >= 0 {
		t.Error("warmer water must be lighter")
	}
	if Rho(TRef, SRef+1) <= 0 {
		t.Error("saltier water must be denser")
	}
}

// The kernels step U, V, T and S level by level in place; a backend that
// ran a level's rows out of order or concurrently must still give every
// level of every owned field, and η, bit for bit.
func TestOceanPPBackendEquivalence(t *testing.T) {
	type state struct{ u, v, t, s, eta []float64 }
	run := func(sp pp.Space) state {
		var out state
		g, _ := grid.NewTripolar(48, 24, 5)
		par.Run(1, func(c *par.Comm) {
			b, _ := grid.NewTripolarDecomp(g, c, 1)
			o, _ := New(g, b, DefaultConfig(), sp)
			for lj := 0; lj < b.NJ; lj++ {
				for li := 0; li < b.NI; li++ {
					o.TauX[o.idx2(li, lj)] = 0.07
					o.QHeat[o.idx2(li, lj)] = 120 * math.Sin(float64(li+lj))
				}
			}
			for s := 0; s < 3; s++ {
				o.Step()
			}
			out = state{o.ownedLevels(o.U), o.ownedLevels(o.V), o.ownedLevels(o.T), o.ownedLevels(o.S), o.surfaceOwned(o.Eta)}
		})
		return out
	}
	ref := run(pp.Serial{})
	for _, sp := range []pp.Space{pp.NewHost(4), pp.NewCPE(8)} {
		got := run(sp)
		for _, f := range []struct {
			name      string
			want, got []float64
		}{
			{"U", ref.u, got.u}, {"V", ref.v, got.v}, {"T", ref.t, got.t}, {"S", ref.s, got.s}, {"Eta", ref.eta, got.eta},
		} {
			for i := range f.want {
				if math.Float64bits(f.got[i]) != math.Float64bits(f.want[i]) {
					t.Fatalf("%s: %s[%d] = %v vs serial %v", sp.Name(), f.name, i, f.got[i], f.want[i])
				}
			}
		}
	}
}

// ownedLevels extracts the owned region (NJ × NI) of every level of a local
// 3-D field, level after level.
func (o *Ocean) ownedLevels(f []float64) []float64 {
	n2 := o.LNI * o.LNJ
	var out []float64
	for k := 0; k < o.NL; k++ {
		out = append(out, o.surfaceOwned(f[k*n2:(k+1)*n2])...)
	}
	return out
}

// surfaceOwned extracts the owned region (NJ × NI) of the surface level of
// a local field (2-D, or level 0 of a 3-D field).
func (o *Ocean) surfaceOwned(f []float64) []float64 {
	out := make([]float64, o.B.NJ*o.B.NI)
	for lj := 0; lj < o.B.NJ; lj++ {
		for li := 0; li < o.B.NI; li++ {
			out[lj*o.B.NI+li] = f[o.idx2(li, lj)]
		}
	}
	return out
}

// tracerContent returns the global volume integral of a tracer field
// (Σ tr·vol over wet cells), reduced across ranks. Conserved by transport;
// changed only by surface forcing.
func tracerContent(o *Ocean, tr []float64) float64 {
	n2 := o.LNI * o.LNJ
	var local float64
	for lj := 0; lj < o.B.NJ; lj++ {
		jg := o.B.J0 + lj
		area := o.G.DX[jg] * o.G.DY
		for li := 0; li < o.B.NI; li++ {
			c := o.idx2(li, lj)
			for k := 0; k < o.kmt[c]; k++ {
				local += tr[k*n2+c] * area * o.dz[k]
			}
		}
	}
	return o.B.AllreduceSum(local)
}
