package budget

import (
	"fmt"
	"math"
	"strings"
	"testing"
)

type fakeObs struct{ gauges map[string]float64 }

func (f *fakeObs) SetGauge(name string, v float64) {
	if f.gauges == nil {
		f.gauges = map[string]float64{}
	}
	f.gauges[name] = v
}

func TestResidualMath(t *testing.T) {
	iv := Interval{
		HeatAtmCpl: 1e15, HeatCplOcn: 1e15 + 1e5, HeatGross: 2e15,
		FWAtmCpl: 10, FWCplOcn: 10, FWGross: 1e6,
	}
	// |1e5| / max(2e15, ...) = 5e-11.
	if got, want := iv.HeatResid(), 1e5/2e15; math.Abs(got-want) > 1e-25 {
		t.Errorf("HeatResid = %g, want %g", got, want)
	}
	if iv.FWResid() != 0 {
		t.Errorf("FWResid = %g, want 0 for exact agreement", iv.FWResid())
	}
	// Zero everything: residual is 0, not NaN.
	if r := (Interval{}).HeatResid(); r != 0 {
		t.Errorf("empty interval HeatResid = %g", r)
	}
	// The gross denominator must prevent cancellation inflation: a tiny net
	// over a large gross interface stays a tiny relative residual.
	iv = Interval{HeatAtmCpl: 1, HeatCplOcn: 2, HeatGross: 1e12}
	if r := iv.HeatResid(); r > 1e-11 {
		t.Errorf("cancellation-dominated residual %g not scaled by gross", r)
	}
	if got, want := iv.SaltCplOcn(), 0.0; got != want {
		t.Errorf("SaltCplOcn on zero fw = %g", got)
	}
	iv.FWCplOcn = 2000
	if got, want := iv.SaltCplOcn(), 35.0/1000.0*2000; got != want {
		t.Errorf("SaltCplOcn = %g, want %g", got, want)
	}
}

func TestLedgerRecordStreamsGauges(t *testing.T) {
	ob := &fakeObs{}
	l := NewLedger(ob)
	l.Record(Interval{
		Seconds: 2400, HeatSW: 1, HeatLW: -2, HeatSens: -3, HeatLat: -4,
		HeatAtmCpl: -8, HeatCplOcn: -8, HeatGross: 10, HeatIceOcn: 0.5,
		FWAtmCpl: 6, FWCplOcn: 6, FWGross: 7,
		OcnHeat: 1e22, OcnSalt: 1e18, IceFW: 1e15, LndWater: 1e14, AtmWater: 1e13,
		UnmappedCells: 3,
	})
	want := map[string]float64{
		"budget.heat.sw":         1,
		"budget.heat.lw":         -2,
		"budget.heat.sens":       -3,
		"budget.heat.lat":        -4,
		"budget.heat.atm_cpl":    -8,
		"budget.heat.cpl_ocn":    -8,
		"budget.heat.ice_ocn":    0.5,
		"budget.heat.resid":      0,
		"budget.fw.atm_cpl":      6,
		"budget.fw.cpl_ocn":      6,
		"budget.fw.resid":        0,
		"budget.salt.cpl_ocn":    Interval{FWCplOcn: 6}.SaltCplOcn(),
		"budget.store.ocn_heat":  1e22,
		"budget.store.ocn_salt":  1e18,
		"budget.store.ice_fw":    1e15,
		"budget.store.lnd_water": 1e14,
		"budget.store.atm_water": 1e13,
		"budget.unmapped.cells":  3,
	}
	for name, v := range want {
		got, ok := ob.gauges[name]
		if !ok {
			t.Errorf("gauge %q not streamed", name)
		} else if got != v {
			t.Errorf("gauge %q = %g, want %g", name, got, v)
		}
	}
	if got := len(held(l)); got != 1 {
		t.Fatalf("ledger holds %d intervals", got)
	}
	if held(l)[0].Index != 0 {
		t.Errorf("first interval index = %d", held(l)[0].Index)
	}
	// A nil observer must be record-only, not a crash.
	NewLedger(nil).Record(Interval{})
}

func TestSummaryAndReport(t *testing.T) {
	l := NewLedger(nil)
	l.Record(Interval{HeatAtmCpl: 100, HeatCplOcn: 101, HeatGross: 100,
		FWAtmCpl: 10, FWCplOcn: 10, FWGross: 10, OcnHeat: 5, IceFW: 2})
	l.Record(Interval{HeatAtmCpl: 100, HeatCplOcn: 100, HeatGross: 100,
		FWAtmCpl: 10, FWCplOcn: 12, FWGross: 12, OcnHeat: 8, IceFW: 1, UnmappedCells: 4})
	s := l.Summary()
	if s.N != 2 {
		t.Fatalf("N = %d", s.N)
	}
	if want := 1.0 / 101; math.Abs(s.MaxHeatResid-want) > 1e-15 {
		t.Errorf("MaxHeatResid = %g, want %g", s.MaxHeatResid, want)
	}
	if want := (1.0 / 101) / 2; math.Abs(s.MeanHeatResid-want) > 1e-15 {
		t.Errorf("MeanHeatResid = %g, want %g", s.MeanHeatResid, want)
	}
	if want := 2.0 / 12; math.Abs(s.MaxFWResid-want) > 1e-15 {
		t.Errorf("MaxFWResid = %g, want %g", s.MaxFWResid, want)
	}
	if s.UnmappedCells != 4 {
		t.Errorf("UnmappedCells = %d", s.UnmappedCells)
	}
	if s.HeatAtmCplMean != 100 || s.FWAtmCplMean != 10 {
		t.Errorf("mean transports = %g, %g", s.HeatAtmCplMean, s.FWAtmCplMean)
	}

	rep := l.Report()
	for _, frag := range []string{"heat atm→cpl", "intervals 2", "unmapped cells 4", "heat resid"} {
		if !strings.Contains(rep, frag) {
			t.Errorf("Report missing %q:\n%s", frag, rep)
		}
	}
	// Derived storage deltas: second line shows Δocn heat = 3, Δice fw = -1.
	if !strings.Contains(rep, "3.000e+00") || !strings.Contains(rep, "-1.000e+00") {
		t.Errorf("Report missing storage deltas:\n%s", rep)
	}
}

// A long run keeps at most the window: 10 000 records hold Window
// intervals, the last ones in order, while Summary still covers all of
// them, bit for bit equal to a walk over every record in record order,
// and Record allocates nothing.
func TestLedgerWindowKeepsSummaryExact(t *testing.T) {
	const n = 10000
	iv := func(i int) Interval {
		x := float64(i)
		return Interval{
			HeatAtmCpl: 1e15 + x*1e9, HeatCplOcn: 1e15 + x*1e9 + math.Sin(x)*1e4, HeatGross: 2e15 + x,
			FWAtmCpl: 1e6 + x, FWCplOcn: 1e6 + x + math.Cos(x), FWGross: 3e6,
			OcnHeat: x * x, IceFW: -x, UnmappedCells: i % 7,
		}
	}
	l := NewLedger(&fakeObs{})
	var want Summary
	for i := 0; i < n; i++ {
		v := iv(i)
		l.Record(v)
		hr, fr := v.HeatResid(), v.FWResid()
		want.N++
		want.MaxHeatResid = math.Max(want.MaxHeatResid, hr)
		want.MaxFWResid = math.Max(want.MaxFWResid, fr)
		want.MeanHeatResid += hr
		want.MeanFWResid += fr
		want.HeatAtmCplMean += v.HeatAtmCpl
		want.FWAtmCplMean += v.FWAtmCpl
		want.UnmappedCells = v.UnmappedCells
	}
	want.MeanHeatResid /= n
	want.MeanFWResid /= n
	want.HeatAtmCplMean /= n
	want.FWAtmCplMean /= n
	if got := l.Summary(); got != want {
		t.Errorf("Summary after %d records = %+v, want %+v", n, got, want)
	}

	ivs := held(l)
	if len(ivs) != Window {
		t.Fatalf("ledger holds %d intervals after %d records, want %d", len(ivs), n, Window)
	}
	for k, got := range ivs {
		i := n - Window + k
		w := iv(i)
		w.Index = i
		if got != w {
			t.Fatalf("held interval %d = %+v, want record %d", k, got, i)
		}
	}
	if last, ok := l.Last(); !ok || last.Index != n-1 {
		t.Errorf("Last = %+v, %v; want record %d", last, ok, n-1)
	}
	rep := l.Report()
	if !strings.Contains(rep, fmt.Sprintf("(%d earlier intervals not shown)", n-Window+1)) ||
		!strings.Contains(rep, fmt.Sprintf("intervals %d ", n)) {
		t.Errorf("Report of a run past the window:\n%s", rep)
	}
	if lines := strings.Count(rep, "\n"); lines != 1+1+(Window-1)+2 {
		t.Errorf("Report has %d lines, want a header, the count, %d intervals and the summary", lines, Window-1)
	}

	v := iv(0)
	if allocs := testing.AllocsPerRun(2*Window, func() { l.Record(v) }); allocs != 0 {
		t.Errorf("Record allocates %v per call", allocs)
	}
}

// held returns the intervals l holds, the last Window recorded, oldest
// first.
func held(l *Ledger) []Interval {
	var out []Interval
	for i := l.kept(); i < l.run.N; i++ {
		out = append(out, l.recent[i%Window])
	}
	return out
}
