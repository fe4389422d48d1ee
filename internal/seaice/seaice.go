// Package seaice is the CICE4-substitute sea-ice component: a
// Semtner-style thermodynamic ice model (growth from ocean heat loss, melt
// from warm air/ocean, concentration evolution) with simple wind-driven
// free drift, on the same tripolar grid and block decomposition as the
// ocean. The paper notes the sea-ice component is not a performance
// bottleneck; the reproduction keeps it faithful to the coupling contract —
// it imports air temperature and ocean state, exports ice fraction and the
// fluxes that modulate air–sea exchange — and applies the same
// non-ocean-point exclusion as the ocean (§5.2.2).
//
// The import is read in place. The driver binds a Forcing once: per owned
// column, a ghost id into its surface air temperature and 10 m wind arrays,
// and the ocean's own temperature field for the SST. Before every
// Step it refreshes the values those arrays hold; Step copies nothing in.
// The winds are read at owned columns only, so the drift's halo exchange
// carries just the concentration and thickness.
package seaice

import (
	"fmt"
	"math"

	"repro/internal/grid"
)

// RhoIce is the ice density (kg/m³), exported so the budget ledger can
// convert ice volume to freshwater-equivalent mass.
const RhoIce = iceDensity

// Physical constants.
const (
	iceDensity  = 917.0
	latFusion   = 3.34e5 // J/kg
	iceCond     = 2.03   // W/(m K)
	freezePoint = 271.35 // K, seawater freezing
	maxThick    = 5.0    // m, thickness cap
)

// Config sets the ice model parameters.
type Config struct {
	Dt         float64 // step, s
	DriftCoeff float64 // ice speed as a fraction of wind speed (free drift ~2%)
	MinConc    float64 // concentration floor treated as ice-free
}

// DefaultConfig returns standard parameters.
func DefaultConfig() Config {
	return Config{Dt: 3600, DriftCoeff: 0.02, MinConc: 1e-3}
}

// Model is the sea-ice state on one rank's block of the ocean grid. It is
// partitioned on the same ownership map as the ocean: core hands both
// components the same TripolarDecomp, so ice and ocean columns are always
// co-resident and their surface exchange needs no communication.
type Model struct {
	G   *grid.Tripolar
	B   *grid.TripolarDecomp
	Cfg Config

	// State per local cell (with halo storage for drift transport).
	Conc  []float64 // ice concentration, 0–1
	Thick []float64 // mean thickness over the ice-covered fraction, m

	// Import, bound before the first Step.
	Forcing Forcing

	// Exports (valid after Step).
	FreezeHeat []float64 // heat given to the ocean by freezing (negative = extracted), W/m²

	wet []bool

	// Drift scratch: the volume Conc·Thick and the new concentration.
	vol, newConc []float64
}

// Forcing is the ice's import, read where it lives: owned column (li, lj)
// reads its surface air temperature (K) and 10 m wind (m/s) at ghost id
// Ref[lj·NI+li] of TAir, U and V, and its SST from the ocean's temperature
// field (°C, surface level first) at the column's local index. OcnT is the
// ocean's own array: the ocean advances T in place, so the slice bound once
// reads the current SST at every Step.
type Forcing struct {
	Ref        []int32
	TAir, U, V []float64
	OcnT       []float64
}

// New builds the ice model on the block with an initial polar ice cap.
func New(g *grid.Tripolar, b *grid.TripolarDecomp, cfg Config) (*Model, error) {
	if cfg.Dt <= 0 {
		return nil, fmt.Errorf("seaice: non-positive dt")
	}
	n := b.LNI() * b.LNJ()
	m := &Model{
		G: g, B: b, Cfg: cfg,
		Conc: make([]float64, n), Thick: make([]float64, n),
		FreezeHeat: make([]float64, n),
		wet:        make([]bool, n),
		vol:        make([]float64, n), newConc: make([]float64, n),
	}
	for lj := 0; lj < b.NJ; lj++ {
		jg := b.J0 + lj
		lat := g.Lat[jg]
		for li := 0; li < b.NI; li++ {
			idx := b.LIdx(li, lj)
			gi := b.GIdx(li, lj)
			m.wet[idx] = g.Wet(gi)
			if !m.wet[idx] {
				continue
			}
			// Initial caps poleward of ±65°.
			if math.Abs(lat) > 65*math.Pi/180 {
				m.Conc[idx] = 0.9
				m.Thick[idx] = 1.5
			}
		}
	}
	// Wet mask in halos.
	wetF := b.Alloc()
	for lj := 0; lj < b.NJ; lj++ {
		for li := 0; li < b.NI; li++ {
			if m.wet[b.LIdx(li, lj)] {
				wetF[b.LIdx(li, lj)] = 1
			}
		}
	}
	b.ExchangeCells(wetF, 1)
	for i, v := range wetF {
		if v > 0.5 {
			m.wet[i] = true
		}
	}
	return m, nil
}

// Step advances the ice one thermodynamic + drift step. The sweep runs only
// over wet cells — the §5.2.2 exclusion applied to the ice model.
func (m *Model) Step() {
	dt := m.Cfg.Dt
	b := m.B
	in := &m.Forcing

	// --- Thermodynamics ---
	for lj := 0; lj < b.NJ; lj++ {
		for li := 0; li < b.NI; li++ {
			idx := b.LIdx(li, lj)
			if !m.wet[idx] {
				continue
			}
			m.FreezeHeat[idx] = 0
			tAir := in.TAir[in.Ref[lj*b.NI+li]]
			sst := in.OcnT[idx] + 273.15

			if m.Conc[idx] > m.Cfg.MinConc {
				// Conductive growth/melt through the slab: flux ∝ (Tf−Ta)/h.
				h := math.Max(m.Thick[idx], 0.1)
				cond := iceCond * (freezePoint - tAir) / h // W/m², >0 grows ice
				dh := cond * dt / (iceDensity * latFusion)
				// Bottom melt from warm ocean.
				oceanMelt := 20 * (sst - freezePoint) * dt / (iceDensity * latFusion)
				if oceanMelt > 0 {
					dh -= oceanMelt
				}
				m.Thick[idx] += dh
				if m.Thick[idx] <= 0 {
					m.Thick[idx] = 0
					m.Conc[idx] = 0
				} else if m.Thick[idx] > maxThick {
					m.Thick[idx] = maxThick
				}
				// Concentration: melt shrinks, freezing spreads.
				if dh < 0 {
					m.Conc[idx] = math.Max(0, m.Conc[idx]+dh/2)
				} else {
					m.Conc[idx] = math.Min(1, m.Conc[idx]+dh/4)
				}
				m.FreezeHeat[idx] = -cond * m.Conc[idx]
			} else if sst <= freezePoint && tAir < freezePoint {
				// New ice formation in open freezing water.
				m.Conc[idx] = 0.1
				m.Thick[idx] = 0.1
				m.FreezeHeat[idx] = iceDensity * latFusion * 0.1 * 0.1 / dt
			}
		}
	}

	// --- Free drift: upwind transport of concentration and volume by a
	// fraction of the surface wind. The volume is formed on the halo too,
	// from the just-exchanged concentration and thickness: the bits an
	// exchange of it would deliver. Nothing reads Thick again until the
	// final loop, so the new volume goes there in place. ---
	b.ExchangeFields([]grid.HaloField{
		{Data: m.Conc, NLev: 1},
		{Data: m.Thick, NLev: 1},
	})

	vol, newConc := m.vol, m.newConc
	for i := range vol {
		vol[i] = m.Conc[i] * m.Thick[i]
	}
	for lj := 0; lj < b.NJ; lj++ {
		jg := b.J0 + lj
		dx := m.G.DX[jg]
		dy := m.G.DY
		for li := 0; li < b.NI; li++ {
			idx := b.LIdx(li, lj)
			if !m.wet[idx] {
				continue
			}
			p := in.Ref[lj*b.NI+li]
			ui := m.Cfg.DriftCoeff * in.U[p]
			vi := m.Cfg.DriftCoeff * in.V[p]
			// First-order upwind gradients, masked at coasts.
			adv := func(f []float64) float64 {
				var d float64
				if ui >= 0 {
					if m.wet[idx-1] {
						d += ui * (f[idx] - f[idx-1]) / dx
					}
				} else if m.wet[idx+1] {
					d += ui * (f[idx+1] - f[idx]) / dx
				}
				if vi >= 0 {
					if m.wet[idx-m.B.LNI()] {
						d += vi * (f[idx] - f[idx-m.B.LNI()]) / dy
					}
				} else if m.wet[idx+m.B.LNI()] {
					d += vi * (f[idx+m.B.LNI()] - f[idx]) / dy
				}
				return d
			}
			newConc[idx] = clamp01(m.Conc[idx] - dt*adv(m.Conc))
			nv := vol[idx] - dt*adv(vol)
			if nv < 0 {
				nv = 0
			}
			m.Thick[idx] = nv
		}
	}
	for lj := 0; lj < b.NJ; lj++ {
		for li := 0; li < b.NI; li++ {
			idx := b.LIdx(li, lj)
			if !m.wet[idx] {
				continue
			}
			m.Conc[idx] = newConc[idx]
			if newConc[idx] > m.Cfg.MinConc {
				m.Thick[idx] = math.Min(m.Thick[idx]/newConc[idx], maxThick)
			} else {
				m.Conc[idx] = 0
				m.Thick[idx] = 0
			}
		}
	}
}

// IceArea returns the global ice-covered area (m²).
func (m *Model) IceArea() float64 {
	var local float64
	for lj := 0; lj < m.B.NJ; lj++ {
		jg := m.B.J0 + lj
		for li := 0; li < m.B.NI; li++ {
			idx := m.B.LIdx(li, lj)
			if m.wet[idx] {
				local += m.Conc[idx] * m.G.DX[jg] * m.G.DY
			}
		}
	}
	return m.B.AllreduceSum(local)
}

// LocalVolume returns this rank's contribution to the ice volume (m³),
// unreduced: the budget ledger batches the cross-rank sum with its other
// terms in one collective.
func (m *Model) LocalVolume() float64 {
	var local float64
	for lj := 0; lj < m.B.NJ; lj++ {
		jg := m.B.J0 + lj
		for li := 0; li < m.B.NI; li++ {
			idx := m.B.LIdx(li, lj)
			if m.wet[idx] {
				local += m.Conc[idx] * m.Thick[idx] * m.G.DX[jg] * m.G.DY
			}
		}
	}
	return local
}

// IceVolume returns the global ice volume (m³).
func (m *Model) IceVolume() float64 {
	var local float64
	for lj := 0; lj < m.B.NJ; lj++ {
		jg := m.B.J0 + lj
		for li := 0; li < m.B.NI; li++ {
			idx := m.B.LIdx(li, lj)
			if m.wet[idx] {
				local += m.Conc[idx] * m.Thick[idx] * m.G.DX[jg] * m.G.DY
			}
		}
	}
	return m.B.AllreduceSum(local)
}

func clamp01(x float64) float64 {
	if x < 0 {
		return 0
	}
	if x > 1 {
		return 1
	}
	return x
}
