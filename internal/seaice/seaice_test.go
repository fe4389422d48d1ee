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

// force binds a forcing that gives every owned column of m the air
// temperature (K), SST (K) and 10 m wind that fn returns for its latitude.
func force(m *Model, fn func(lat float64) (tAir, sst, u, v float64)) {
	b := m.B
	n := b.NI * b.NJ
	in := Forcing{
		Ref:  make([]int32, n),
		TAir: make([]float64, n), U: make([]float64, n), V: make([]float64, n),
		OcnT: make([]float64, len(m.Conc)),
	}
	for lj := 0; lj < b.NJ; lj++ {
		for li := 0; li < b.NI; li++ {
			k := lj*b.NI + li
			var sst float64
			in.Ref[k] = int32(k)
			in.TAir[k], sst, in.U[k], in.V[k] = fn(m.G.Lat[b.J0+lj])
			in.OcnT[b.LIdx(li, lj)] = sst - 273.15
		}
	}
	m.Forcing = in
}

// uniform binds the same forcing everywhere.
func uniform(m *Model, tAir, sst, u, v float64) {
	force(m, func(float64) (float64, float64, float64, float64) { return tAir, sst, u, v })
}

// warmSST is the cap-free ocean the model used to start from: freezing at
// the poles, 27 °C at the equator.
func warmSST(lat float64) float64 {
	return math.Max(freezePoint, 273.15+27*math.Cos(lat)*math.Cos(lat))
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
		uniform(m, 250, freezePoint, 0, 0)
		for s := 0; s < 48; s++ {
			m.Step()
		}
		v1 := m.IceVolume()
		if v1 <= v0 {
			t.Errorf("ice did not grow in deep freeze: %v -> %v", v0, v1)
		}
		// Tropical heat melts it back.
		uniform(m, 300, 290, 0, 0)
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
		force(m, func(lat float64) (float64, float64, float64, float64) { return 255, warmSST(lat), 8, -3 })
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
		}
		uniform(m, 260, freezePoint-0.1, 0, 0)
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
		uniform(m, freezePoint, freezePoint, 10, 0)
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
			force(m, func(lat float64) (float64, float64, float64, float64) { return 258, warmSST(lat), 6, 0 })
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
