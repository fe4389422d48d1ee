package atmos

import (
	"math"
	"sync/atomic"
)

// ColumnIn is the physics–dynamics coupling interface input (§5.2.1): the
// AI tendency module takes horizontal wind, temperature, specific humidity,
// and pressure; the AI radiation diagnosis additionally takes the skin
// temperature and the cosine of the solar zenith angle. The conventional
// suite consumes the same contract, which is what makes the suites
// interchangeable.
type ColumnIn struct {
	U, V, T, Q, P []float64 // per level, k = 0 at the model top
	Lat           float64
	TSkin         float64 // surface (skin) temperature, K
	CosZ          float64 // cosine of solar zenith angle
	Land          bool
	Ice           float64 // sea-ice fraction
	// SkipRad marks a column that holds its surface radiation this step (see
	// Model.DemandRadiation): the suite leaves ColumnOut.GSW/GLW alone and
	// the caller keeps its held values.
	SkipRad bool
}

// ColumnOut carries the suite's tendencies and diagnosed surface fields.
type ColumnOut struct {
	DT, DQ, DU, DV []float64 // tendencies per level, per second
	GSW, GLW       float64   // downward shortwave/longwave at the surface, W/m²
	Precip         float64   // precipitation rate, kg/m²/s
}

// Suite is the pluggable physics parameterization suite.
type Suite interface {
	Name() string
	// Column computes tendencies for one column over timestep dt. The out
	// slices are pre-allocated by the caller.
	Column(in ColumnIn, dt float64, out *ColumnOut)
}

// ConventionalSuite is the traditional parameterization package the AI
// suite replaces: Held–Suarez radiation (Newtonian relaxation toward the
// analytic equilibrium temperature) and boundary-layer Rayleigh friction,
// plus bulk surface fluxes, surface evaporation, large-scale condensation
// with latent heating, and an empirical surface radiation diagnosis.
type ConventionalSuite struct {
	m *Model

	// Held–Suarez timescales.
	TauRad  float64 // background radiative relaxation, s (40 days)
	TauRadT float64 // tropical boundary-layer relaxation, s (4 days)
	TauFric float64 // boundary-layer friction, s (1 day)
	SigmaB  float64 // boundary-layer top in sigma

	// Bulk exchange coefficients.
	Cd float64 // drag
	Ch float64 // sensible heat
	Ce float64 // evaporation

	S0     float64 // solar constant, W/m²
	Albedo float64

	// Spectral g-point counts for the two-stream radiation diagnosis.
	// The defaults match RRTMG's discretization (112 shortwave and 140
	// longwave g-points), which is what makes conventional radiation the
	// dominant physics cost that the AI radiation module replaces.
	SWGPoints int
	LWGPoints int

	// DisableRadiation skips the two-stream diagnosis; the AI suite sets it
	// on its retained conventional diagnostic module, because the AI
	// radiation module replaces exactly that computation (§5.2.1).
	DisableRadiation bool

	// The suite's lookup tables, built on first use and rebuilt when the
	// g-point or level counts change. Columns run concurrently under
	// ParallelFor, so the tables are published as one immutable snapshot: a
	// column pays an atomic load, never a lock.
	tab atomic.Pointer[suiteTables]
}

// suiteTables are the per-g-point absorption coefficients, window to
// saturated, and the per-level factors of the equilibrium temperature, ln(σ)
// and σ^κ. Never written after publication.
type suiteTables struct {
	swK, lwK     []float64
	eqLog, eqPow []float64
}

// NewConventionalSuite returns the suite with standard coefficients.
func NewConventionalSuite(m *Model) *ConventionalSuite {
	return &ConventionalSuite{
		m:       m,
		TauRad:  40 * 86400,
		TauRadT: 4 * 86400,
		TauFric: 1 * 86400,
		SigmaB:  0.7,
		Cd:      1.3e-3,
		Ch:      1.0e-3,
		Ce:      1.2e-3,
		S0:      1361,
		Albedo:  0.3,

		SWGPoints: 112,
		LWGPoints: 140,
	}
}

// Name implements Suite.
func (s *ConventionalSuite) Name() string { return "conventional" }

// Column implements Suite.
func (s *ConventionalSuite) Column(in ColumnIn, dt float64, out *ColumnOut) {
	nlev := len(in.T)
	m := s.m
	ps := in.P[nlev-1] / m.Sig[nlev-1]

	// --- Held–Suarez radiation: relax T toward equilibrium. In the
	// boundary layer the analytic target blends toward the actual skin
	// temperature (≈1 K warmer air aloft), the usual aquaplanet correction:
	// without it the analytic tropics sit ~6 K above the SST, inverting the
	// sensible heat flux and shutting off evaporation. ---
	tab := s.tables()
	eqLog, eqPow := tab.eqLog, tab.eqPow
	sin2, cos2 := sinSq(in.Lat), cosSq(in.Lat)
	for k := 0; k < nlev; k++ {
		sig := m.Sig[k]
		teq := eqT(sin2, cos2, eqLog[k], eqPow[k])
		if sig > 0.85 && in.TSkin > 0 {
			w := (sig - 0.85) / 0.15
			teq = w*(in.TSkin-1) + (1-w)*teq
		}
		// Relaxation rate: fast in the tropical boundary layer.
		kt := 1 / s.TauRad
		if sig > s.SigmaB {
			frac := (sig - s.SigmaB) / (1 - s.SigmaB)
			kt += (1/s.TauRadT - 1/s.TauRad) * frac * cos2 * cos2
		}
		out.DT[k] = -kt * (in.T[k] - teq)
	}

	// --- Boundary-layer friction ---
	for k := 0; k < nlev; k++ {
		sig := m.Sig[k]
		if sig > s.SigmaB {
			kv := (sig - s.SigmaB) / (1 - s.SigmaB) / s.TauFric
			out.DU[k] = -kv * in.U[k]
			out.DV[k] = -kv * in.V[k]
		}
	}

	// --- Surface exchange (lowest level) ---
	kb := nlev - 1
	wind := math.Hypot(in.U[kb], in.V[kb])
	rhoSfc := ps / (Rd * in.T[kb])
	// The skin temperature is the ocean SST, the ice surface, or the land
	// model's soil temperature, whichever owns the cell.
	tSfc := in.TSkin
	// Sensible heat flux (positive = surface heats the atmosphere when the
	// surface is warmer).
	shf := rhoSfc * Cpd * s.Ch * wind * (tSfc - in.T[kb])
	// The lowest layer warms/cools accordingly: flux divided by layer mass.
	layerMass := ps * s.m.DSig[kb] / Gravity
	out.DT[kb] += shf / (Cpd * layerMass)

	// --- Evaporation (open water only, scaled down by ice cover) ---
	if !in.Land {
		open := 1 - in.Ice
		qs := qsat(tSfc, ps)
		evap := rhoSfc * s.Ce * wind * (qs - in.Q[kb]) * open
		if evap < 0 {
			evap = 0
		}
		out.DQ[kb] += evap / layerMass
	}

	// --- Large-scale condensation with latent heating ---
	var precip float64
	for k := 0; k < nlev; k++ {
		qs := qsat(in.T[k], in.P[k])
		if in.Q[k] > qs {
			excess := (in.Q[k] - qs) / (1 + LatVap*LatVap*qs/(Cpd*Rd*in.T[k]*in.T[k]))
			// Rain out over the physics step.
			rate := excess / dt
			out.DQ[k] -= rate
			out.DT[k] += LatVap / Cpd * rate
			lm := ps * s.m.DSig[k] / Gravity
			precip += rate * lm
		}
	}
	out.Precip = precip

	// --- Radiation diagnosis (gsw, glw): the fields the AI radiation
	// module estimates for the land model and surface layer (§5.2.1).
	// Computed with a real multi-g-point two-stream sweep, the dominant
	// cost of a conventional physics suite.
	if !s.DisableRadiation && !in.SkipRad {
		out.GSW, out.GLW = s.TwoStreamRadiation(in)
	}
}

// TwoStreamRadiation computes the downward shortwave and longwave fluxes at
// the surface with a correlated-k two-stream scheme: the spectrum is
// discretized into g-points with log-spaced absorption strengths; each
// g-point's beam is attenuated (SW) or emitted/absorbed (LW) layer by layer
// down the column. Water vapour is the absorber; the g-point weights follow
// an exponential distribution so a few strong g-points saturate while the
// window g-points carry flux to the surface — the structure real k-
// distribution radiation codes (RRTMG) have, at the same per-column cost
// scale.
// The sweep itself is the twoStreamRad body in kernels.go, which keeps the
// historical operand grouping around pp's table-driven exponential (1 232
// exponentials per sunlit column at the default g-point counts, about half
// the column's cost).
func (s *ConventionalSuite) TwoStreamRadiation(in ColumnIn) (gsw, glw float64) {
	nlev := len(in.T)
	m := s.m
	ps := in.P[nlev-1] / m.Sig[nlev-1]
	tab := s.tables()
	return twoStreamRad(in.Q, in.T, m.DSig, ps, in.CosZ, s.S0, tab.swK, tab.lwK)
}

// tables returns the current snapshot, building a new one when none exists
// or SWGPoints, LWGPoints or the level count no longer match it. Columns
// that race to build publish identical tables, so whichever store lands last
// changes nothing a reader can see. The g-point tables are log-spaced; the
// level factors are eqLevel's, so a table entry carries the same bits as an
// eqLevel call.
func (s *ConventionalSuite) tables() *suiteTables {
	sig := s.m.Sig
	t := s.tab.Load()
	if t != nil && len(t.swK) == s.SWGPoints && len(t.lwK) == s.LWGPoints && len(t.eqLog) == len(sig) {
		return t
	}
	t = &suiteTables{
		swK: make([]float64, s.SWGPoints), lwK: make([]float64, s.LWGPoints),
		eqLog: make([]float64, len(sig)), eqPow: make([]float64, len(sig)),
	}
	for g := range t.swK {
		t.swK[g] = 2e-4 * math.Exp(9*float64(g)/float64(s.SWGPoints-1))
	}
	for g := range t.lwK {
		t.lwK[g] = 5e-4 * math.Exp(8*float64(g)/float64(s.LWGPoints-1))
	}
	for k := range sig {
		t.eqLog[k], t.eqPow[k] = eqLevel(sig[k])
	}
	s.tab.Store(t)
	return t
}
