// Package ocean is the LICOM-substitute ocean general circulation model of
// the reproduction: a free-surface primitive-equation ocean on the tripolar
// latitude–longitude grid, with LICOM's split time stepping (fast 2-D
// barotropic subcycling inside the 3-D baroclinic step, tracers on the
// baroclinic step), C-grid staggering, flux-form conservative tracer
// transport, a linear equation of state, and surface wind/heat/freshwater
// forcing imported through the coupler.
//
// The model runs distributed over a grid.TripolarDecomp (one 2-D block per
// rank; a 1×1 layout is the serial case), exchanges halos through the par
// runtime in batched calls (one message per peer for every field of a
// phase), steps its 3-D state in place a level at a time, executes its
// kernels through a pp execution space, honours the FP64 /
// group-scaled-FP32 precision policy of §5.2.3, and supports the 3-D
// non-ocean-point exclusion of §5.2.2 via the compact subpackage types.
package ocean

import (
	"fmt"
	"math"

	"repro/internal/grid"
	"repro/internal/pp"
	"repro/internal/precision"
)

// Physical constants (LICOM conventions).
const (
	Gravity = 9.806
	Rho0    = 1026.0 // reference density, kg/m³
	Cp      = 3996.0 // seawater heat capacity, J/(kg K)
	TRef    = 10.0   // EOS reference temperature, °C
	SRef    = 35.0   // EOS reference salinity, psu
	AlphaT  = 2.0e-4 // thermal expansion, 1/K
	BetaS   = 7.6e-4 // haline contraction, 1/psu
)

// Config sets the time stepping and mixing parameters. The paper's
// production configuration uses 2 s / 20 s / 20 s (barotropic / baroclinic /
// tracer); the reproduction keeps the same 1:10 subcycling ratio at
// laptop-scale timesteps.
type Config struct {
	DtBaroclinic   float64 // seconds per baroclinic (and tracer) step
	NBarotropicSub int     // barotropic substeps per baroclinic step
	AH             float64 // horizontal viscosity, m²/s
	KH             float64 // horizontal tracer diffusivity, m²/s
	KV             float64 // vertical tracer diffusivity, m²/s
	BottomDrag     float64 // Rayleigh bottom drag, 1/s
	Policy         precision.Policy
	PrecisionGroup int // group size for FP32 group scaling

	// RiMixing enables the Richardson-number-dependent vertical mixing
	// closure (the canuto-scheme stand-in) on every tracer step.
	RiMixing bool
	Mixing   MixingConfig
}

// DefaultConfig returns a stable configuration for the reproduction grids.
func DefaultConfig() Config {
	return Config{
		DtBaroclinic:   1200,
		NBarotropicSub: 10,
		AH:             5.0e3,
		KH:             1.0e3,
		KV:             1.0e-4,
		BottomDrag:     1.0e-6,
		Policy:         precision.FP64,
		PrecisionGroup: 64,
		Mixing:         DefaultMixing(),
	}
}

// Ocean is the model state on one rank's block.
type Ocean struct {
	G   *grid.Tripolar
	B   *grid.TripolarDecomp
	Cfg Config
	Sp  pp.Space

	NL  int // vertical levels
	LNI int // local extents including halo
	LNJ int

	// Prognostic state. 3-D fields are level-major over the local block
	// including halos; U sits on east faces, V on north faces, tracers and
	// Eta at centers.
	U, V, T, S      []float64
	Eta, Ubar, Vbar []float64
	TauX, TauY      []float64 // surface wind stress, N/m²
	QHeat           []float64 // surface heat flux into the ocean, W/m²
	FWFlux          []float64 // freshwater flux, psu-equivalent tendency

	// Grid-derived local arrays.
	maskT []bool    // wet tracer cell (surface)
	kmt   []int     // active levels per column
	dz    []float64 // layer thicknesses
	depth []float64 // column depth at centers

	steps int

	// Persistent stepping scratch (lazily built on the first Step): the
	// level planes and the bound kernel argument bundles, so steady-state
	// stepping performs zero heap allocations. The prognostic arrays are
	// advanced in place and never replaced.
	scr *stepScratch
}

// stepScratch holds the persistent work arrays of the stepping hot path and
// the kernel argument bundles the drivers bind before each launch: three
// surface-sized planes and no level-sized array, each written in a step
// before it is read. The kernels step U, V, T and S a level at a time, and
// a level's slab is all a plane has to hold. Step parameters live on the
// bundles as explicit arguments.
//
// Who borrows which plane, in step order:
//
//	phase                  pr                  ubar          vbar
//	baroclinic momentum    pressure integral   level's new U level's new V
//	barotropic subcycle    —                   Ubar buffer   Vbar buffer
//	tracers (T, then S)    —                   level plane   level plane
type stepScratch struct {
	pr         []float64 // hydrostatic pressure through the current level
	ubar, vbar []float64 // barotropic double buffers (η steps in place)

	// Bound kernel argument bundles.
	mom   *momentumArgs
	cont  *continuityArgs
	bt    *btMomentumArgs
	split *splitArgs
	adv   *advectArgs

	// ex is the reusable halo-batch descriptor slice: each exchange site
	// rebuilds it in place without allocating (Ubar/Vbar swap with their
	// double buffers every barotropic substep).
	ex []grid.HaloField
}

// idx2 returns the local 2-D offset of (li, lj) in owned coordinates.
func (o *Ocean) idx2(li, lj int) int { return (lj+o.B.H)*o.LNI + li + o.B.H }

// idx3 returns the local 3-D offset at level k.
func (o *Ocean) idx3(k, li, lj int) int { return k*o.LNI*o.LNJ + o.idx2(li, lj) }

// New builds the ocean on one rank's block of the given decomposition with
// an initial stratified, resting state.
func New(g *grid.Tripolar, b *grid.TripolarDecomp, cfg Config, sp pp.Space) (*Ocean, error) {
	if cfg.DtBaroclinic <= 0 || cfg.NBarotropicSub <= 0 {
		return nil, fmt.Errorf("ocean: non-positive timestep configuration")
	}
	if cfg.Policy == precision.Mixed && cfg.PrecisionGroup <= 0 {
		return nil, fmt.Errorf("ocean: the Mixed policy quantizes in groups of PrecisionGroup values, got %d", cfg.PrecisionGroup)
	}
	if sp == nil {
		sp = pp.Serial{}
	}
	o := &Ocean{
		G: g, B: b, Cfg: cfg, Sp: sp,
		NL:  g.NLevel,
		LNI: b.LNI(), LNJ: b.LNJ(),
	}
	n2 := o.LNI * o.LNJ
	n3 := o.NL * n2
	o.U = make([]float64, n3)
	o.V = make([]float64, n3)
	o.T = make([]float64, n3)
	o.S = make([]float64, n3)
	o.Eta = make([]float64, n2)
	o.Ubar = make([]float64, n2)
	o.Vbar = make([]float64, n2)
	o.TauX = make([]float64, n2)
	o.TauY = make([]float64, n2)
	o.QHeat = make([]float64, n2)
	o.FWFlux = make([]float64, n2)
	o.maskT = make([]bool, n2)
	o.kmt = make([]int, n2)
	o.depth = make([]float64, n2)

	o.dz = make([]float64, o.NL)
	prev := 0.0
	for k := 0; k < o.NL; k++ {
		o.dz[k] = g.LevelDepth[k] - prev
		prev = g.LevelDepth[k]
	}

	// Fill mask/kmt/depth including halos via exchange of encoded fields.
	km := b.Alloc()
	dp := b.Alloc()
	for lj := 0; lj < b.NJ; lj++ {
		for li := 0; li < b.NI; li++ {
			gi := b.GIdx(li, lj)
			_, depth, kmt := g.Column(gi)
			km[b.LIdx(li, lj)] = float64(kmt)
			dp[b.LIdx(li, lj)] = depth
		}
	}
	b.ExchangeFields([]grid.HaloField{{Data: km, NLev: 1}, {Data: dp, NLev: 1}})
	for idx := range km {
		o.kmt[idx] = int(km[idx])
		o.depth[idx] = dp[idx]
		o.maskT[idx] = o.kmt[idx] > 0
	}

	// The barotropic subcycle must resolve the external gravity wave
	// (c = √(g·H) ≈ 230 m/s) on the narrowest zonal spacing of the grid —
	// exactly why the production configuration runs 2 s barotropic steps
	// under 20 s baroclinic steps. The substep count adapts upward when the
	// configured ratio would violate the CFL limit.
	dxMin := g.DX[g.NY-1]
	for _, dx := range g.DX {
		if dx < dxMin {
			dxMin = dx
		}
	}
	cWave := math.Sqrt(Gravity * g.LevelDepth[g.NLevel-1])
	need := int(math.Ceil(cfg.DtBaroclinic * cWave / (0.4 * dxMin)))
	if need > o.Cfg.NBarotropicSub {
		o.Cfg.NBarotropicSub = need
	}

	o.InitStratified()
	return o, nil
}

// InitStratified sets the canonical initial condition: an exponential
// thermocline warm at the equator, uniform salinity with a small surface
// anomaly, resting velocities, flat SSH.
func (o *Ocean) InitStratified() {
	for k := 0; k < o.NL; k++ {
		zc := o.G.LevelDepth[k] - o.dz[k]/2
		// The level's decay factors once, each row's surface temperature
		// once per level: a row is uniform across its wet columns.
		decayT, sk := math.Exp(-zc/800), SRef-0.5*math.Exp(-zc/300)
		for lj := -o.B.H; lj < o.B.NJ+o.B.H; lj++ {
			jg := o.B.J0 + lj
			lat := 0.0
			if jg >= 0 && jg < o.G.NY {
				lat = o.G.Lat[jg]
			} else if jg >= o.G.NY {
				lat = o.G.Lat[2*o.G.NY-1-jg]
			} else {
				lat = o.G.Lat[0]
			}
			surfT := math.Max(-1, 28*math.Cos(lat)*math.Cos(lat)-2)
			tk := -1 + (surfT+1)*decayT
			for li := -o.B.H; li < o.B.NI+o.B.H; li++ {
				if o.maskT[o.idx2(li, lj)] {
					o.T[o.idx3(k, li, lj)], o.S[o.idx3(k, li, lj)] = tk, sk
				}
			}
		}
	}
}

// Rho returns the density anomaly (kg/m³ relative to Rho0) by the linear
// equation of state.
func Rho(t, s float64) float64 {
	return Rho0 * (-AlphaT*(t-TRef) + BetaS*(s-SRef))
}

// Wet reports whether the owned column (li, lj) of the block is ocean.
func (o *Ocean) Wet(li, lj int) bool { return o.maskT[o.idx2(li, lj)] }

// Steps returns how many baroclinic steps have run.
func (o *Ocean) Steps() int { return o.steps }

// SetSteps reinstates the step counter from a restart file.
func (o *Ocean) SetSteps(n int) { o.steps = n }
