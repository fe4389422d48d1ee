// Package land is the land-surface component of the reproduction: a
// bucket-hydrology, force-restore surface-energy-balance model on the
// atmosphere's icosahedral mesh. As in the paper (§5.1.1), the land model
// exchanges data directly with the atmosphere, bypassing the coupler: the
// atmosphere hands it the downward radiation (gsw, glw — the outputs of the
// AI radiation diagnosis module), precipitation, and lowest-level state;
// the land model returns the skin temperature and surface fluxes.
package land

import (
	"fmt"
	"math"

	"repro/internal/grid"
)

// Physical constants.
const (
	sigmaSB     = 5.670e-8 // Stefan–Boltzmann
	soilHeatCap = 2.0e6    // volumetric heat capacity, J/(m³ K)
	soilDepth   = 0.5      // thermally active layer, m
	bucketCap   = 0.15     // bucket capacity, m of water
	rhoAir      = 1.2
	cpAir       = 1004.64
	latVap      = 2.5e6
)

// Config sets the land model parameters.
type Config struct {
	Albedo     float64 // snow-free albedo
	Emissivity float64
	DrainTime  float64 // bucket drainage timescale, s
	ExchCoeff  float64 // bulk transfer coefficient Ch = Ce
}

// DefaultConfig returns standard parameters.
func DefaultConfig() Config {
	return Config{
		Albedo:     0.25,
		Emissivity: 0.95,
		DrainTime:  20 * 86400,
		ExchCoeff:  2.0e-3,
	}
}

// Model is the land state over the atmosphere's land cells: every one of
// them on one rank, a decomposed rank's patch's, in the ids of the mesh the
// model is built on.
type Model struct {
	Cfg   Config
	Cells []int // atmosphere cell indices that are land

	TSoil  []float64 // soil temperature per land cell, K
	Bucket []float64 // soil water per land cell, m
}

// New builds the land model for the land cells of an icosahedral mesh.
func New(mesh *grid.IcosMesh, cfg Config) (*Model, error) {
	if cfg.ExchCoeff <= 0 || cfg.DrainTime <= 0 {
		return nil, fmt.Errorf("land: non-positive parameters")
	}
	m := &Model{Cfg: cfg}
	for c := 0; c < mesh.NCells(); c++ {
		if grid.IsLand(mesh.LonCell[c], mesh.LatCell[c]) {
			m.add(mesh, c)
		}
	}
	return m, nil
}

// add appends a land column for atmosphere cell c with the analytic
// initial state.
func (m *Model) add(mesh *grid.IcosMesh, c int) {
	m.Cells = append(m.Cells, c)
	lat := mesh.LatCell[c]
	m.TSoil = append(m.TSoil, 273.15+25*math.Cos(lat)*math.Cos(lat))
	m.Bucket = append(m.Bucket, bucketCap/2)
}

// Adopt takes ownership of additional atmosphere cells — the coupler's
// unmapped cells, whose spiral search found no wet ocean column — so their
// surface exchange runs through the land model instead of being dropped.
// Already-owned cells are skipped; adopted cells get the same analytic
// initial state as native land cells.
func (m *Model) Adopt(mesh *grid.IcosMesh, cells []int) {
	owned := make(map[int]bool, len(m.Cells)+len(cells))
	for _, c := range m.Cells {
		owned[c] = true
	}
	for _, c := range cells {
		if !owned[c] {
			owned[c] = true
			m.add(mesh, c)
		}
	}
}

// Slots returns the local slot indices (ascending) of the cells satisfying
// pred — how a decomposed driver picks, among its patch's land columns, the
// ones whose cell it owns: it audits and writes those.
func (m *Model) Slots(pred func(cell int) bool) []int {
	var out []int
	for slot, c := range m.Cells {
		if pred(c) {
			out = append(out, slot)
		}
	}
	return out
}

// Forcing is the per-cell atmospheric input for one land step.
type Forcing struct {
	GSW    float64 // downward shortwave, W/m²
	GLW    float64 // downward longwave, W/m²
	TAir   float64 // lowest-level air temperature, K
	QAir   float64 // lowest-level specific humidity
	Wind   float64 // lowest-level wind speed, m/s
	Precip float64 // kg/m²/s
	PSfc   float64 // surface pressure, Pa
}

// Response is what the land returns to the atmosphere.
type Response struct {
	TSkin float64 // skin temperature, K
	SHF   float64 // sensible heat flux, W/m² (positive up, into atmosphere)
	LHF   float64 // latent heat flux, W/m²
	Evap  float64 // kg/m²/s
}

// StepCell advances the land column of atmosphere cell atmCell (see
// StepSlot), and rejects a cell the model has no column for. It searches
// Cells for the slot; a driver that steps every column steps by slot.
func (m *Model) StepCell(atmCell int, f Forcing, dt float64) (Response, error) {
	for slot, c := range m.Cells {
		if c == atmCell {
			return m.StepSlot(slot, f, dt), nil
		}
	}
	return Response{}, fmt.Errorf("land: cell %d is not a land cell", atmCell)
}

// StepSlot advances land column slot by dt under the given forcing and
// returns its response. Surface energy balance: absorbed SW + incoming LW −
// emitted LW − sensible − latent heats the soil slab; the bucket gains rain
// and loses evaporation and slow drainage, and spills what exceeds its
// capacity.
func (m *Model) StepSlot(slot int, f Forcing, dt float64) Response {
	ts := m.TSoil[slot]

	// Turbulent fluxes with the current skin temperature.
	shf := rhoAir * cpAir * m.Cfg.ExchCoeff * f.Wind * (ts - f.TAir)
	// Evaporation limited by bucket fullness (beta factor).
	beta := m.Bucket[slot] / bucketCap
	if beta > 1 {
		beta = 1
	}
	qs := qsatLand(ts, f.PSfc)
	evap := rhoAir * m.Cfg.ExchCoeff * f.Wind * (qs - f.QAir) * beta
	if evap < 0 {
		evap = 0 // no dew in the reproduction
	}
	lhf := latVap * evap

	// Energy balance on the soil slab.
	absorbed := (1-m.Cfg.Albedo)*f.GSW + m.Cfg.Emissivity*f.GLW
	emitted := m.Cfg.Emissivity * sigmaSB * ts * ts * ts * ts
	net := absorbed - emitted - shf - lhf
	m.TSoil[slot] = ts + dt*net/(soilHeatCap*soilDepth)

	// Bucket hydrology: rain in, evaporation and drainage out, spill at
	// capacity.
	w := m.Bucket[slot]
	w += dt * (f.Precip/1000 - evap/1000) // kg/m²/s → m/s of water
	w -= w / m.Cfg.DrainTime * dt
	if w > bucketCap {
		w = bucketCap
	}
	if w < 0 {
		w = 0
	}
	m.Bucket[slot] = w

	return Response{TSkin: m.TSoil[slot], SHF: shf, LHF: lhf, Evap: evap}
}

// MeanSoilTemp returns the mean soil temperature (K).
func (m *Model) MeanSoilTemp() float64 {
	if len(m.TSoil) == 0 {
		return 0
	}
	var s float64
	for _, t := range m.TSoil {
		s += t
	}
	return s / float64(len(m.TSoil))
}

// TotalWater returns the total bucket water (m, summed over cells).
func (m *Model) TotalWater() float64 {
	var s float64
	for _, w := range m.Bucket {
		s += w
	}
	return s
}

func qsatLand(t, p float64) float64 {
	es := 610.78 * math.Exp(17.27*(t-273.15)/(t-35.85))
	q := 0.622 * es / math.Max(p-0.378*es, 1)
	return math.Min(q, 0.08)
}
