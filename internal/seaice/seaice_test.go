package seaice

import (
	"math"
	"testing"

	"repro/internal/grid"
	"repro/internal/par"
)

func withIce(t *testing.T, nx, ny int, f func(m *Model)) {
	t.Helper()
	g, err := grid.NewTripolar(nx, ny, 5)
	if err != nil {
		t.Fatal(err)
	}
	par.Run(1, func(c *par.Comm) {
		b, err := grid.NewTripolarDecomp(g, c, 1)
		if err != nil {
			t.Error(err)
			return
		}
		m, err := New(g, b, DefaultConfig())
		if err != nil {
			t.Error(err)
			return
		}
		f(m)
	})
}

func TestValidation(t *testing.T) {
	g, _ := grid.NewTripolar(24, 12, 3)
	par.Run(1, func(c *par.Comm) {
		b, _ := grid.NewTripolarDecomp(g, c, 1)
		if _, err := New(g, b, Config{Dt: 0}); err == nil {
			t.Error("zero dt accepted")
		}
	})
}

func TestInitialPolarCaps(t *testing.T) {
	withIce(t, 48, 24, func(m *Model) {
		if m.IceArea() <= 0 || m.IceVolume() <= 0 {
			t.Error("no initial ice")
		}
		// Ice only on wet cells and only near the poles.
		for lj := 0; lj < m.B.NJ; lj++ {
			lat := m.G.Lat[m.B.J0+lj]
			for li := 0; li < m.B.NI; li++ {
				idx := m.B.LIdx(li, lj)
				if m.Conc[idx] > 0 && !m.wet[idx] {
					t.Fatal("ice on land")
				}
				if m.Conc[idx] > 0 && math.Abs(lat) < 55*math.Pi/180 {
					t.Fatalf("initial ice at %.0f°", lat*180/math.Pi)
				}
			}
		}
	})
}

func TestColdAirGrowsIceWarmAirMeltsIt(t *testing.T) {
	withIce(t, 48, 24, func(m *Model) {
		v0 := m.IceVolume()
		// Deep freeze everywhere.
		for i := range m.TAir {
			m.TAir[i] = 250
			m.SST[i] = freezePoint
		}
		for s := 0; s < 48; s++ {
			m.Step()
		}
		v1 := m.IceVolume()
		if v1 <= v0 {
			t.Errorf("ice did not grow in deep freeze: %v -> %v", v0, v1)
		}
		// Tropical heat melts it back.
		for i := range m.TAir {
			m.TAir[i] = 300
			m.SST[i] = 290
		}
		for s := 0; s < 400; s++ {
			m.Step()
		}
		v2 := m.IceVolume()
		if v2 >= v1/10 {
			t.Errorf("ice did not melt: %v -> %v", v1, v2)
		}
	})
}

func TestConcentrationBounds(t *testing.T) {
	withIce(t, 48, 24, func(m *Model) {
		for i := range m.TAir {
			m.TAir[i] = 255
			m.WindU[i] = 8
			m.WindV[i] = -3
		}
		for s := 0; s < 100; s++ {
			m.Step()
		}
		for i, c := range m.Conc {
			if c < 0 || c > 1 {
				t.Fatalf("conc[%d] = %v", i, c)
			}
			if m.Thick[i] < 0 || m.Thick[i] > maxThick+1e-9 {
				t.Fatalf("thick[%d] = %v", i, m.Thick[i])
			}
			if math.IsNaN(c) || math.IsNaN(m.Thick[i]) {
				t.Fatal("NaN in ice state")
			}
		}
	})
}

func TestNewIceFormsInFreezingOpenWater(t *testing.T) {
	withIce(t, 48, 24, func(m *Model) {
		// Clear all ice, freeze mid-latitude water.
		for i := range m.Conc {
			m.Conc[i] = 0
			m.Thick[i] = 0
			m.TAir[i] = 260
			m.SST[i] = freezePoint - 0.1
		}
		m.Step()
		if m.IceArea() <= 0 {
			t.Error("no new ice formed in freezing water")
		}
		// FreezeHeat must be positive somewhere (latent heat released).
		var anyHeat bool
		for _, h := range m.FreezeHeat {
			if h > 0 {
				anyHeat = true
			}
		}
		if !anyHeat {
			t.Error("no freezing heat released")
		}
	})
}

func TestDriftMovesIce(t *testing.T) {
	withIce(t, 48, 24, func(m *Model) {
		// Neutral thermodynamics, strong steady wind: the cap edge advects.
		for i := range m.TAir {
			m.TAir[i] = freezePoint
			m.SST[i] = freezePoint
			m.WindU[i] = 10
		}
		before := append([]float64(nil), m.Conc...)
		for s := 0; s < 20; s++ {
			m.Step()
		}
		var moved bool
		for i := range before {
			if math.Abs(m.Conc[i]-before[i]) > 1e-6 {
				moved = true
				break
			}
		}
		if !moved {
			t.Error("drift did not change the concentration field")
		}
	})
}

func TestParallelSerialIceAgreement(t *testing.T) {
	g, _ := grid.NewTripolar(24, 12, 3)
	run := func(px, py int) []float64 {
		var out []float64
		par.Run(px*py, func(c *par.Comm) {
			b, err := grid.NewTripolarDecompLayout(g, c, px, py, 1)
			if err != nil {
				t.Error(err)
				return
			}
			m, err := New(g, b, DefaultConfig())
			if err != nil {
				t.Error(err)
				return
			}
			for i := range m.WindU {
				m.WindU[i] = 6
				m.TAir[i] = 258
			}
			for s := 0; s < 5; s++ {
				m.Step()
			}
			conc := b.Alloc()
			copy(conc, m.Conc)
			gl := b.GatherGlobal(conc)
			if c.Rank() == 0 {
				out = gl
			}
		})
		return out
	}
	ref := run(1, 1)
	got := run(2, 2)
	for i := range ref {
		if math.Abs(ref[i]-got[i]) > 1e-12 {
			t.Fatalf("conc[%d]: serial %v vs parallel %v", i, ref[i], got[i])
		}
	}
}
