package machine

import (
	"math"
	"testing"
	"testing/quick"
)

func TestSunwayOceanLightSpecs(t *testing.T) {
	m := SunwayOceanLight()
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
	// Paper §6.3: >107520 nodes, 390 cores each, 41,932,800 total.
	if m.Nodes != 107520 || m.CoresPerNode != 390 {
		t.Errorf("nodes/cores = %d/%d", m.Nodes, m.CoresPerNode)
	}
	if n := m.Nodes * m.CoresPerNode; n != 41932800 {
		t.Errorf("total cores %d", n)
	}
	// One process per core group, six CGs per SW26010P.
	if m.RanksPerNode != 6 {
		t.Errorf("ranks per node %d", m.RanksPerNode)
	}
	if m.SupernodeSize != 256 || math.Abs(m.Oversub-16.0/3.0) > 1e-12 {
		t.Errorf("supernode %d, oversub %v", m.SupernodeSize, m.Oversub)
	}
}

func TestORISESpecs(t *testing.T) {
	m := ORISE()
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
	if m.AccelPerNode != 4 {
		t.Errorf("GPUs per node %d", m.AccelPerNode)
	}
	if m.PCIeGBs != 16 || m.InjectGBs != 25 {
		t.Errorf("PCIe %v, network %v (paper: 16 and 25 GB/s)", m.PCIeGBs, m.InjectGBs)
	}
}

func TestNodeCoreConversions(t *testing.T) {
	m := SunwayOceanLight()
	if m.CoresForNodes(10) != 3900 {
		t.Error("CoresForNodes")
	}
}

func TestCrossSupernodeFractionMonotone(t *testing.T) {
	m := SunwayOceanLight()
	if m.CrossSupernodeFraction(256) != 0 {
		t.Error("single supernode should not cross uplinks")
	}
	f := func(a, b uint16) bool {
		na, nb := int(a)+257, int(b)+257
		if na > nb {
			na, nb = nb, na
		}
		fa, fb := m.CrossSupernodeFraction(na), m.CrossSupernodeFraction(nb)
		return fa >= 0 && fb <= 1 && fb >= fa-1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestEffectiveHaloBWDegrades(t *testing.T) {
	m := SunwayOceanLight()
	small := m.EffectiveHaloBW(100)
	big := m.EffectiveHaloBW(100000)
	if small != m.InjectGBs {
		t.Errorf("within-supernode bandwidth %v", small)
	}
	if big >= small || big <= small/m.Oversub {
		t.Errorf("degraded bandwidth %v out of (%v, %v)", big, small/m.Oversub, small)
	}
	// ORISE has no oversubscription: bandwidth is flat.
	o := ORISE()
	if o.EffectiveHaloBW(10) != o.EffectiveHaloBW(4000) {
		t.Error("ORISE bandwidth should not vary")
	}
}

func TestValidateCatchesBadMachines(t *testing.T) {
	bad := &Machine{Name: "broken"}
	if err := bad.Validate(); err == nil {
		t.Error("empty machine validated")
	}
	m := SunwayOceanLight()
	m.LatencyUS = 0
	if err := m.Validate(); err == nil {
		t.Error("zero latency validated")
	}
}
