package core

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/obs"
	"repro/internal/par"
	"repro/internal/pp"
)

// wireFields names the coupled prognostic fields in the order
// globalCoupledState flattens them, with their per-field slices split back
// out so bit-error budgets can be stated per field instead of over one
// anonymous buffer.
var wireFieldNames = []string{"Ps", "T", "Qv", "U", "SST", "TSoil", "Bucket"}

// splitCoupledState cuts a globalCoupledState buffer into named per-field
// slices using the same offsets the assembly used.
func splitCoupledState(e *ESM, buf []float64) map[string][]float64 {
	m := e.Atm
	nc, ne, nl := m.Mesh.NCells(), m.Mesh.NEdges(), m.NLev
	nT := len(e.Lnd.TSoil)
	out := make(map[string][]float64, len(wireFieldNames))
	o := 0
	for _, f := range wireFieldNames {
		n := 0
		switch f {
		case "Ps", "SST":
			n = nc
		case "T", "Qv":
			n = nl * nc
		case "U":
			n = nl * ne
		case "TSoil", "Bucket":
			n = nT
		}
		out[f] = buf[o : o+n]
		o += n
	}
	return out
}

// runWire advances a fresh audited conservative-remap model under the given
// wire format and returns rank 0's per-field global state, the worst audited
// residuals, and the cpl.wire.ratio gauge value (0 when unpublished).
func runWire(t *testing.T, ranks int, sched Schedule, wire par.WireFormat, steps int) (fields map[string][]float64, maxHeat, maxFW, ratio float64) {
	t.Helper()
	cfg, err := ConfigForLabel("25v10")
	if err != nil {
		t.Fatal(err)
	}
	par.Run(ranks, func(c *par.Comm) {
		e, err := NewWithOptions(cfg, c, WithSpace(pp.Serial{}),
			WithSchedule(sched), WithRemap(RemapCons), WithAudit(true),
			WithWireCompression(wire))
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
		st := globalCoupledState(e)
		if c.Rank() == 0 {
			fields = splitCoupledState(e, st)
			s := e.Budget().Summary()
			maxHeat, maxFW = s.MaxHeatResid, s.MaxFWResid
			if o, ok := e.obs.(*obs.Obs); ok {
				ratio = o.Registry().Gauge("cpl.wire.ratio").Value()
			}
		}
	})
	return fields, maxHeat, maxFW, ratio
}

// The gate the compression rides behind: with group-scaled FP32 on every
// halo and on the nearest-neighbour rearrangers, the conservation audit must
// stay within its 1e-10 residual gate at 2, 4, and 8 ranks under both
// schedules. This holds because the conservative flux router is exempt from
// compression — the delivered flux integrals are the same f64 values both
// sides of the ledger tally — while halo quantization only perturbs
// redundantly recomputed overlap state.
func TestWireGS32ConservationAudit(t *testing.T) {
	const steps = 25 // five audited ocean couplings
	counts := []int{2, 4, 8}
	if testing.Short() {
		counts = []int{2, 8}
	}
	for _, ranks := range counts {
		for _, sched := range []Schedule{ScheduleSeq, ScheduleConc} {
			t.Run(fmt.Sprintf("ranks=%d/%v", ranks, sched), func(t *testing.T) {
				_, maxHeat, maxFW, ratio := runWire(t, ranks, sched, par.WireGS32, steps)
				if maxHeat > 1e-10 || maxFW > 1e-10 {
					t.Errorf("gs32 residuals %.3e/%.3e exceed the 1e-10 gate", maxHeat, maxFW)
				}
				if ratio < 1.6 {
					t.Errorf("cpl.wire.ratio = %.3f, want ≥ 1.6 (compression inactive?)", ratio)
				}
			})
		}
	}
}

// The per-field bit-error budget: a gs32 run may drift from the f64
// reference only within a small relative envelope of each field's dynamic
// range. The per-exchange quantization error is ≤ 2⁻²² of the group max;
// over 25 steps of coupled dynamics the accumulated divergence must stay
// bounded well below any physically meaningful scale.
func TestWireGS32StateWithinBudget(t *testing.T) {
	const steps = 25
	ref, refHeat, refFW, _ := runWire(t, 2, ScheduleSeq, par.WireF64, steps)
	if refHeat > 1e-10 || refFW > 1e-10 {
		t.Fatalf("f64 reference residuals %.3e/%.3e exceed the 1e-10 gate", refHeat, refFW)
	}
	got, _, _, _ := runWire(t, 2, ScheduleSeq, par.WireGS32, steps)
	for _, f := range wireFieldNames {
		a, b := ref[f], got[f]
		if len(a) != len(b) {
			t.Fatalf("%s: length %d vs %d", f, len(a), len(b))
		}
		scale := 0.0
		for _, v := range a {
			if av := math.Abs(v); av > scale {
				scale = av
			}
		}
		if scale == 0 {
			scale = 1
		}
		budget := scale * 1e-4
		worst, at := 0.0, -1
		for i := range a {
			if d := math.Abs(a[i] - b[i]); d > worst {
				worst, at = d, i
			}
		}
		if worst > budget {
			t.Errorf("%s[%d] drifts %.3e from f64, budget %.3e (scale %.3e)",
				f, at, worst, budget, scale)
		}
	}
}

// The default wire format is f64 and must stay bit-for-bit identical to a
// run that never heard of WithWireCompression — the zero-value option is the
// historical behaviour, which the rank-invariance tests then pin across rank
// counts.
func TestWireF64DefaultBitIdentical(t *testing.T) {
	const steps = 15
	explicit, _, _, ratio := runWire(t, 2, ScheduleSeq, par.WireF64, steps)
	if ratio != 0 {
		t.Errorf("cpl.wire.ratio published under f64: %v", ratio)
	}
	baseState, _, _, _ := runDecomp(t, 2, ScheduleSeq, steps)
	var base map[string][]float64
	{
		cfg, err := ConfigForLabel("25v10")
		if err != nil {
			t.Fatal(err)
		}
		par.Run(1, func(c *par.Comm) {
			e, err := NewWithOptions(cfg, c)
			if err != nil {
				t.Error(err)
				return
			}
			base = splitCoupledState(e, baseState)
		})
	}
	for _, f := range wireFieldNames {
		for i := range base[f] {
			if base[f][i] != explicit[f][i] {
				t.Fatalf("%s[%d]: explicit f64 %v differs from default %v",
					f, i, explicit[f][i], base[f][i])
			}
		}
	}
}
