package perfmodel

import "testing"

// The family scaling ProjectCoupled rests on: a calibrated component curve
// scaled to another nominal resolution (Curve.ScaledTo).
func TestProjectComponentMatchesCalibratedCurves(t *testing.T) {
	m := newModel(t)
	atm3 := m.MustCurve(CurveATM3CPE)
	// Scaling a curve to its own resolution must reproduce it exactly.
	self := atm3.ScaledTo("atm3@3km", 3, atmPoints3D(3))
	if got, want := self.SYPD(17039360), atm3.SYPD(17039360); got != want {
		t.Errorf("self-projection %v != %v", got, want)
	}
	// Family-scaling the 3 km curve to 1 km must land near the calibrated
	// 1 km curve (it was measured independently) — the cross-validation of
	// the family-scaling assumption.
	p1 := atm3.ScaledTo("atm3@1km", 1, atmPoints3D(1)).SYPD(34078270)
	meas := m.MustCurve(CurveATM1CPE).SYPD(34078270) // 0.85
	if p1 < meas/2 || p1 > meas*2 {
		t.Errorf("1 km projection %v vs measured %v (family scaling off by >2x)", p1, meas)
	}
}

func TestProjectCoupledLadder(t *testing.T) {
	m := newModel(t)
	const cores = 3.6e7
	ladder, err := m.ProjectionLadder(cores)
	if err != nil {
		t.Fatal(err)
	}
	if len(ladder) != 5 {
		t.Fatalf("%d rungs", len(ladder))
	}
	// SYPD must increase monotonically from 1v1 to 25v10 (coarser = faster),
	// spanning orders of magnitude.
	for i := 1; i < len(ladder); i++ {
		if ladder[i].SYPD <= ladder[i-1].SYPD {
			t.Errorf("ladder not monotone: %s %.3f <= %s %.3f",
				ladder[i].Label, ladder[i].SYPD, ladder[i-1].Label, ladder[i-1].SYPD)
		}
	}
	// The 3v2 rung must sit near the paper's measured coupled result
	// (1.01 SYPD at 36.6M cores) — the composition's validation point.
	var p3v2 ProjectedPoint
	for _, p := range ladder {
		if p.Label == "3v2" {
			p3v2 = p
		}
	}
	if p3v2.SYPD < 0.7 || p3v2.SYPD > 1.4 {
		t.Errorf("3v2 projection %.3f SYPD, paper measured 1.01", p3v2.SYPD)
	}
	// The atmosphere takes the larger domain share at the paper's measured
	// configurations (3v2 and 1v1, where §7.2 calls it the most expensive
	// component); at the coarsest pair the 10 km ocean legitimately
	// dominates, so only the split's validity is asserted there.
	for _, p := range ladder {
		if p.AtmShare <= 0 || p.AtmShare >= 1 {
			t.Errorf("%s: invalid split %.2f", p.Label, p.AtmShare)
		}
		if (p.Label == "3v2" || p.Label == "1v1") && p.AtmShare < 0.5 {
			t.Errorf("%s: atmosphere share %.2f < 0.5", p.Label, p.AtmShare)
		}
	}
}
