// Package budget is the coupled conservation-audit ledger: per coupling
// interval it records the globally reduced, area-integrated energy and
// freshwater crossing each component interface (atm→cpl, cpl→ocn, ocn↔ice),
// the storage held inside each component, and the relative residual between
// what the atmosphere exported and what the ocean imported. Budget closure
// is what makes multi-decade coupled runs trustworthy (§5.1.1): under the
// conservative remap the residual must close to round-off, and any leak a
// coupling change opens shows in it.
//
// The package is pure bookkeeping: the driver (internal/core) computes the
// terms — the ocean-side sums already reduced across ranks, the
// atmosphere-side sums replicated — and hands one Interval per ocean
// coupling to Ledger.Record, which derives the residuals, streams every
// term through the observer's gauges and folds the interval into the run's
// summary; the ledger keeps only a fixed window of recent intervals.
package budget

import (
	"fmt"
	"math"
	"strings"
)

// Observer is the structural subset of obs.Observer the ledger streams
// gauges through, so only core and the command binaries import obs directly.
type Observer interface {
	SetGauge(name string, v float64)
}

// Interval holds the globally reduced budget terms of one ocean coupling
// interval. Sign convention: positive heat and freshwater terms are directed
// into the ocean (freshwater is evaporation−precipitation, so positive fw
// means the ocean loses water and concentrates salt).
type Interval struct {
	Index   int     // coupling interval number, 0-based
	Seconds float64 // simulated length of the interval

	// Energy across the atm↔ocn interface, W (area-integrated).
	// The atm→cpl side integrates the per-atmosphere-cell flux parts over
	// the conservative overlap areas Ã_c = Σ_i ŵ_ic·A_i; the cpl→ocn side
	// integrates the delivered flux over the ocean cell areas A_i.
	HeatSW, HeatLW, HeatSens, HeatLat float64 // atm→cpl parts
	HeatAtmCpl                        float64 // net atm→cpl export
	HeatCplOcn                        float64 // net delivered to the ocean
	HeatGross                         float64 // Σ Ã_c·|q_c|, residual scale
	HeatIceOcn                        float64 // ice→ocn freeze/melt heat, W

	// Freshwater across the atm↔ocn interface, kg/s.
	FWAtmCpl float64 // atm→cpl export (E−P over overlap areas)
	FWCplOcn float64 // delivered to the ocean
	FWGross  float64 // Σ Ã_c·|emp_c|, residual scale

	// Storage snapshots at the audit instant (per-interval changes are
	// derived between successive records; informational, not gated).
	OcnHeat  float64 // J, ρ₀·c_p·∫T dV
	OcnSalt  float64 // kg of salt, ρ₀·∫S dV / 1000
	IceFW    float64 // kg, ice mass as freshwater equivalent
	LndWater float64 // kg, bucket water
	AtmWater float64 // kg, column water vapour

	// UnmappedCells counts non-land atmosphere cells with no reachable wet
	// ocean column: their fluxes are routed to the land model, never
	// silently dropped, so they appear in neither interface sum.
	UnmappedCells int
}

// HeatResid returns the relative heat-budget residual of the interval:
// |export − import| over the gross interface magnitude, so near-cancelling
// global sums cannot inflate the relative measure.
func (iv Interval) HeatResid() float64 {
	return relResid(iv.HeatAtmCpl, iv.HeatCplOcn, iv.HeatGross)
}

// FWResid returns the relative freshwater-budget residual of the interval.
func (iv Interval) FWResid() float64 {
	return relResid(iv.FWAtmCpl, iv.FWCplOcn, iv.FWGross)
}

// SaltCplOcn returns the virtual salt flux the delivered freshwater implies
// (kg of salt per second): S_ref/1000 · (E−P) integrated over the interface.
func (iv Interval) SaltCplOcn() float64 { return 35.0 / 1000.0 * iv.FWCplOcn }

func relResid(export, imported, gross float64) float64 {
	diff := math.Abs(export - imported)
	scale := math.Max(gross, math.Max(math.Abs(export), math.Abs(imported)))
	if scale == 0 {
		return 0
	}
	return diff / scale
}

// Window is the number of most recent intervals a Ledger keeps for Last
// and Report. Summary covers every interval recorded.
const Window = 64

// Ledger streams each interval's terms through the observer's gauges as it
// arrives, keeps the last Window intervals in a ring allocated once, and
// folds every interval into running Summary terms, in record order — the
// order a walk over all of them would take, so the sums keep their bits. A
// ledger's memory does not grow with the length of the run, and Record
// allocates nothing.
type Ledger struct {
	obs    Observer   // nil disables streaming
	recent []Interval // interval i at recent[i%Window]
	run    Summary    // N, maxima, UnmappedCells and the sums of the means
}

// NewLedger builds a ledger streaming to ob (nil keeps records only).
func NewLedger(ob Observer) *Ledger { return &Ledger{obs: ob, recent: make([]Interval, Window)} }

// Record adds one interval and publishes its terms as gauges.
func (l *Ledger) Record(iv Interval) {
	s := &l.run
	iv.Index = s.N
	l.recent[s.N%Window] = iv
	s.N++
	hr, fr := iv.HeatResid(), iv.FWResid()
	s.MaxHeatResid = math.Max(s.MaxHeatResid, hr)
	s.MaxFWResid = math.Max(s.MaxFWResid, fr)
	s.MeanHeatResid += hr
	s.MeanFWResid += fr
	s.HeatAtmCplMean += iv.HeatAtmCpl
	s.FWAtmCplMean += iv.FWAtmCpl
	s.UnmappedCells = iv.UnmappedCells
	if l.obs == nil {
		return
	}
	l.obs.SetGauge("budget.heat.sw", iv.HeatSW)
	l.obs.SetGauge("budget.heat.lw", iv.HeatLW)
	l.obs.SetGauge("budget.heat.sens", iv.HeatSens)
	l.obs.SetGauge("budget.heat.lat", iv.HeatLat)
	l.obs.SetGauge("budget.heat.atm_cpl", iv.HeatAtmCpl)
	l.obs.SetGauge("budget.heat.cpl_ocn", iv.HeatCplOcn)
	l.obs.SetGauge("budget.heat.ice_ocn", iv.HeatIceOcn)
	l.obs.SetGauge("budget.heat.resid", hr)
	l.obs.SetGauge("budget.fw.atm_cpl", iv.FWAtmCpl)
	l.obs.SetGauge("budget.fw.cpl_ocn", iv.FWCplOcn)
	l.obs.SetGauge("budget.fw.resid", fr)
	l.obs.SetGauge("budget.salt.cpl_ocn", iv.SaltCplOcn())
	l.obs.SetGauge("budget.store.ocn_heat", iv.OcnHeat)
	l.obs.SetGauge("budget.store.ocn_salt", iv.OcnSalt)
	l.obs.SetGauge("budget.store.ice_fw", iv.IceFW)
	l.obs.SetGauge("budget.store.lnd_water", iv.LndWater)
	l.obs.SetGauge("budget.store.atm_water", iv.AtmWater)
	l.obs.SetGauge("budget.unmapped.cells", float64(iv.UnmappedCells))
}

// kept returns the index of the oldest interval the ledger still holds.
func (l *Ledger) kept() int { return max(0, l.run.N-Window) }

// Last returns the most recent interval, and false before the first.
func (l *Ledger) Last() (Interval, bool) {
	if l.run.N == 0 {
		return Interval{}, false
	}
	return l.recent[(l.run.N-1)%Window], true
}

// Summary condenses a run's records into the closure verdict.
type Summary struct {
	N                            int // intervals recorded
	MaxHeatResid, MeanHeatResid  float64
	MaxFWResid, MeanFWResid      float64
	UnmappedCells                int
	HeatAtmCplMean, FWAtmCplMean float64 // mean interface transports
}

// Summary reduces every interval recorded, the ones the window no longer
// holds included.
func (l *Ledger) Summary() Summary {
	s := l.run
	if s.N == 0 {
		return s
	}
	n := float64(s.N)
	s.MeanHeatResid /= n
	s.MeanFWResid /= n
	s.HeatAtmCplMean /= n
	s.FWAtmCplMean /= n
	return s
}

// Report formats the ledger: one line per interval it holds with the
// interface terms, residuals and storage changes, and the summary of the
// whole run. Once the run outgrows the window, the oldest interval held
// only anchors the next line's storage changes, and a line counts the
// intervals not shown.
func (l *Ledger) Report() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%4s  %13s %13s %10s  |%13s %13s %10s  |%11s %11s\n",
		"int", "heat atm→cpl", "heat cpl→ocn", "resid",
		"fw atm→cpl", "fw cpl→ocn", "resid", "Δocn heat", "Δice fw")
	first := l.kept()
	if first > 0 {
		first++
		fmt.Fprintf(&b, "%4s  (%d earlier intervals not shown)\n", "…", first)
	}
	for i := first; i < l.run.N; i++ {
		iv := l.recent[i%Window]
		dHeat, dIce := 0.0, 0.0
		if i > 0 {
			prev := l.recent[(i-1)%Window]
			dHeat = iv.OcnHeat - prev.OcnHeat
			dIce = iv.IceFW - prev.IceFW
		}
		fmt.Fprintf(&b, "%4d  %13.5e %13.5e %10.2e  |%13.5e %13.5e %10.2e  |%11.3e %11.3e\n",
			iv.Index, iv.HeatAtmCpl, iv.HeatCplOcn, iv.HeatResid(),
			iv.FWAtmCpl, iv.FWCplOcn, iv.FWResid(), dHeat, dIce)
	}
	s := l.Summary()
	fmt.Fprintf(&b, "intervals %d  unmapped cells %d\n", s.N, s.UnmappedCells)
	fmt.Fprintf(&b, "heat resid: max %.3e  mean %.3e   fw resid: max %.3e  mean %.3e\n",
		s.MaxHeatResid, s.MeanHeatResid, s.MaxFWResid, s.MeanFWResid)
	return b.String()
}
