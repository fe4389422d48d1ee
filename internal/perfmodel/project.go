package perfmodel

import (
	"fmt"
	"math"
)

// Projection answers the questions the paper leaves open: what would a
// configuration it never measured do? The family scaling of a calibrated
// curve extrapolates to other resolutions of the same component/variant, and
// the concurrent-layout composition assembles coupled configurations from
// their components.

// ProjectedPoint is one projected configuration.
type ProjectedPoint struct {
	Label    string
	Cores    float64
	SYPD     float64
	AtmShare float64 // coupled projections: atmosphere domain share
	Basis    string  // which calibrated curves the projection rests on
}

// ProjectCoupled composes a coupled configuration from family-scaled
// component curves under the optimal two-domain concurrent layout, with the
// coupler overhead implied by the calibrated 3v2 coupled curve.
func (m *Model) ProjectCoupled(atmResKm, ocnResKm int, cores float64) (ProjectedPoint, error) {
	atmBase := m.MustCurve(CurveATM3CPE)
	ocnBase := m.MustCurve(CurveOCN2CPE)
	atm := atmBase
	if p := atmPoints3D(atmResKm); p != atmBase.Points {
		atm = atmBase.ScaledTo(fmt.Sprintf("proj/atm%dkm", atmResKm), float64(atmResKm), p)
	}
	ocn := ocnBase
	if p := ocnPoints3D(ocnResKm); p != ocnBase.Points {
		ocn = ocnBase.ScaledTo(fmt.Sprintf("proj/ocn%dkm", ocnResKm), float64(ocnResKm), p)
	}
	cpl := ImpliedCouplerTime(m.MustCurve(CurveESM3v2), atmBase, ocnBase, math.Min(cores, 3.6e7))
	best, err := OptimalSplit(atm, ocn, cores, cpl)
	if err != nil {
		return ProjectedPoint{}, err
	}
	return ProjectedPoint{
		Label:    fmt.Sprintf("AP3ESM %dv%d at %.3g cores", atmResKm, ocnResKm, cores),
		Cores:    cores,
		SYPD:     best.SYPD,
		AtmShare: best.AtmFraction,
		Basis:    "family-scaled ATM3CPE + OCN2CPE, 3v2-implied coupler overhead",
	}, nil
}

// ProjectionLadder evaluates every Table 1 coupled pair at a core count —
// the SYPD ladder the paper reports only two rungs of (3v2 and 1v1).
func (m *Model) ProjectionLadder(cores float64) ([]ProjectedPoint, error) {
	out := make([]ProjectedPoint, 0, len(CoupledPairs))
	for _, p := range CoupledPairs {
		pt, err := m.ProjectCoupled(p.AtmResKm, p.OcnResKm, cores)
		if err != nil {
			return nil, err
		}
		pt.Label = p.Label
		out = append(out, pt)
	}
	return out, nil
}
