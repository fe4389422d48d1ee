// Package atmos is the GRIST-substitute atmosphere general circulation
// model: a hydrostatic primitive-equation dynamical core in sigma
// coordinates on the icosahedral cell/edge/vertex mesh, with GRIST's
// three-rate time stepping (fast dycore substeps, slower tracer transport,
// slowest physics — the paper's 8 s / 30 s / 120 s hierarchy), flux-form
// conservative mass and moisture transport, and a pluggable physics suite:
// either the conventional parameterizations or the AI-powered suite of
// §5.2.1, both behind the same physics–dynamics coupling interface.
//
// Parallelism follows the paper's division of labour: the atmosphere's
// heavy lifting is thread-level (OpenMP/SWGOMP on the CPEs), which the
// reproduction expresses by running every mesh sweep through a pp execution
// space; across ranks the mesh is partitioned by grid.IcosDecomp (NewPatch),
// each rank building, storing and sweeping only its patch — its owned cells
// plus a ring-1 halo — and exchanging halos at the substep boundaries,
// bit-for-bit the 1-rank answer.
//
// Every 3-D field — state and dycore scratch — is column-major, level-inner
// (Model.Idx), so the column loops that dominate the step read contiguous
// memory. The dycore scratch that is dead between substeps is borrowed by
// the tracer and physics steps; its tv/φ array (dyScratch.th) is never
// borrowed, because the hydrostatic integral is carried from substep to
// substep until T or qv changes.
package atmos

import (
	"fmt"
	"math"
	"sync/atomic"

	"repro/internal/grid"
	"repro/internal/par"
	"repro/internal/pp"
	"repro/internal/precision"
)

// Physical constants.
const (
	Gravity = 9.80616
	Rd      = 287.04  // gas constant, dry air
	Cpd     = 1004.64 // heat capacity, dry air
	P0      = 1.0e5   // reference surface pressure, Pa
	Kappa   = Rd / Cpd
	LatVap  = 2.5e6 // latent heat of vaporization, J/kg
)

// Config sets resolution-independent model parameters.
type Config struct {
	DtDycore     float64 // seconds per dynamics substep
	TracerEvery  int     // dycore substeps per tracer step (paper: 30 s / 8 s ≈ 4)
	PhysicsEvery int     // dycore substeps per physics step (paper: 120 s / 8 s = 15)
	Div4         float64 // divergence damping coefficient (nondimensional)
	Kh           float64 // horizontal diffusion for T, qv (m²/s)
	KhMomentum   float64 // horizontal viscosity for u (m²/s)
	Policy       precision.Policy
	PrecGroup    int
}

// DefaultConfig returns the standard test configuration: the paper's
// 1 : 3.75 : 15 sub-step ratios rounded to integers, laptop-scale dt.
func DefaultConfig() Config {
	return Config{
		DtDycore:     120,
		TracerEvery:  4,
		PhysicsEvery: 15,
		Div4:         0.02,
		Kh:           1.0e5,
		KhMomentum:   2.0e5,
		Policy:       precision.FP64,
		PrecGroup:    64,
	}
}

// Model is the atmosphere state. Every per-cell, per-edge and per-vertex
// array is laid out over Mesh: the whole globe on one rank (New), this
// rank's patch (in local ids, see grid.IcosDecomp) when decomposed
// (NewPatch).
type Model struct {
	Mesh *grid.IcosMesh
	Cfg  Config
	Sp   pp.Space
	NLev int

	// Sigma full-level values and layer thicknesses (Δσ), k=0 at the top.
	Sig  []float64
	DSig []float64

	// Prognostics. Every 3-D field is column-major, level-inner: level k of
	// cell c is [c*nlev + k], of edge e [e*nlev + k] (Idx). Code outside the
	// package indexes them through Idx, SurfaceAir and CloudProxy.
	Ps []float64 // surface pressure [nCells]
	T  []float64 // temperature [nCells*nlev]
	Qv []float64 // specific humidity [nCells*nlev]
	U  []float64 // edge-normal velocity [nEdges*nlev]

	// Surface boundary conditions (imported from ocean/ice via the coupler,
	// or from the land model directly).
	SST     []float64 // surface temperature under each column [nCells], K
	IceFrac []float64 // sea-ice fraction [nCells]
	IsLand  []bool    // land mask on atmosphere cells [nCells]

	// Physics outputs a later step reads: the land step and the air–sea
	// flux import read all three. The surface stress and heat fluxes are
	// recomputed where they are consumed (the land model, the coupler's
	// bulk formulas), so the physics keeps none of them.
	Precip []float64 // precipitation rate [nCells], kg/m²/s
	GSW    []float64 // downward shortwave at surface (radiation diagnosis output)
	GLW    []float64 // downward longwave

	Physics Suite
	recon   *reconstructor
	flux    *accFlux
	steps   int
	dec     *grid.IcosDecomp
	dy      *dyScratch
	cols    colPool

	// thFresh reports that the dycore scratch's tv/φ are the hydrostatic
	// integral of the current T and qv (see dynamicsSubstep); hydroSweeps
	// counts the integrals taken.
	thFresh     bool
	hydroSweeps int

	// Radiation step (see DemandRadiation): the mask of cells a reader outside
	// the model consumes, which of the two column sets the next physics step
	// diagnoses, and the running count of columns diagnosed (atomic: columns
	// may run concurrently).
	radMask             []bool
	radMarked, radOwned bool
	radCols             atomic.Int64
}

// DemandRadiation gives surface radiation its own time step. GSW/GLW are pure
// diagnoses — nothing in the atmosphere reads them back — so the caller says
// which columns the next physics step sweeps and every other column holds
// its last diagnosis: with marked, the cells set in mask; with owned, every
// cell this rank owns. A radiation step passes both, and the mask is then
// what lets halo cells ride along (a halo column is swept only if marked:
// nothing else on this rank reads it); a held step passes neither. A nil
// mask — the state of a model nobody has called this on — diagnoses every
// column every step.
func (m *Model) DemandRadiation(mask []bool, marked, owned bool) {
	m.radMask, m.radMarked, m.radOwned = mask, marked, owned
}

// radSkipped reports whether cell c holds its surface radiation this step.
func (m *Model) radSkipped(c int) bool {
	if m.radMask == nil || (m.radMarked && m.radMask[c]) {
		return false
	}
	return !m.radOwned || (m.dec != nil && !m.dec.Owns(c))
}

// RadiationColumns returns the number of columns whose surface radiation
// this model has diagnosed so far.
func (m *Model) RadiationColumns() int { return int(m.radCols.Load()) }

// Decomp returns the active decomposition (nil when replicated).
func (m *Model) Decomp() *grid.IcosDecomp { return m.dec }

// New builds the whole-globe model at the given mesh refinement level with
// nlev levels: the one-rank model, which nothing decomposes.
func New(level, nlev int, cfg Config, sp pp.Space) (*Model, error) {
	if err := checkConfig(nlev, cfg); err != nil {
		return nil, err
	}
	mesh, err := grid.NewIcosMesh(level)
	if err != nil {
		return nil, err
	}
	return newModel(mesh, mesh, nlev, cfg, sp), nil
}

// NewPatch builds the model on this rank's patch of the whole mesh, d.Patch
// (grid.NewPatchDecomp of mesh): the state, the surface fields, IsLand and
// the reconstructor exist for the patch only, indexed by local id. The
// edge frame (normals, tangents and Coriolis) needs both cells of an edge,
// so it is taken from the whole mesh for the patch's edges; the speed bound
// is the largest over every rank's patch, one reduction over d's
// communicator, so it is the whole mesh's. Every sweep covers the patch
// (owned cells plus the ring-1 halo the stencils need), with halo exchanges
// at the substep boundaries; local ids ascend in global id, so every row and
// every reduction sees its operands in the same order and the answer is
// bit-for-bit the one-rank one. The model keeps no reference to mesh.
// Collective over d's communicator.
func NewPatch(mesh *grid.IcosMesh, d *grid.IcosDecomp, nlev int, cfg Config, sp pp.Space) (*Model, error) {
	if err := checkConfig(nlev, cfg); err != nil {
		return nil, err
	}
	m := newModel(d.Patch, mesh, nlev, cfg, sp)
	m.dec = d
	// Rounding is monotone, so the largest widened bound is the widened
	// largest bound.
	m.recon.speedBound = d.Comm().Allreduce(m.recon.speedBound, par.OpMax)
	return m, nil
}

// checkConfig rejects a level count or step configuration no model runs.
func checkConfig(nlev int, cfg Config) error {
	if nlev < 2 {
		return fmt.Errorf("atmos: need at least 2 levels, got %d", nlev)
	}
	if !(cfg.DtDycore > 0) || cfg.TracerEvery <= 0 || cfg.PhysicsEvery <= 0 {
		return fmt.Errorf("atmos: DtDycore, TracerEvery and PhysicsEvery must be positive, got %v, %d and %d",
			cfg.DtDycore, cfg.TracerEvery, cfg.PhysicsEvery)
	}
	if cfg.Policy == precision.Mixed && cfg.PrecGroup <= 0 {
		return fmt.Errorf("atmos: the Mixed policy quantizes in groups of PrecGroup values, got %d", cfg.PrecGroup)
	}
	return nil
}

// newModel builds the model at rest (InitBaroclinicRest) over mesh, the
// whole mesh or a patch of it, taking its edges' frame from whole.
func newModel(mesh, whole *grid.IcosMesh, nlev int, cfg Config, sp pp.Space) *Model {
	if sp == nil {
		sp = pp.Serial{}
	}
	m := &Model{Mesh: mesh, Cfg: cfg, Sp: sp, NLev: nlev}
	m.cols = make(colPool, sp.Concurrency())

	// Sigma layers: uniform interfaces from σ=0.05 (model top) to 1.
	m.Sig = make([]float64, nlev)
	m.DSig = make([]float64, nlev)
	top := 0.05
	for k := 0; k < nlev; k++ {
		si0 := top + (1-top)*float64(k)/float64(nlev)
		si1 := top + (1-top)*float64(k+1)/float64(nlev)
		m.Sig[k] = 0.5 * (si0 + si1)
		m.DSig[k] = si1 - si0
	}

	nc, ne := mesh.NCells(), mesh.NEdges()
	m.Ps = make([]float64, nc)
	m.T = make([]float64, nlev*nc)
	m.Qv = make([]float64, nlev*nc)
	m.U = make([]float64, nlev*ne)
	m.SST = make([]float64, nc)
	m.IceFrac = make([]float64, nc)
	m.IsLand = make([]bool, nc)
	m.Precip = make([]float64, nc)
	m.GSW = make([]float64, nc)
	m.GLW = make([]float64, nc)

	for c := 0; c < nc; c++ {
		m.IsLand[c] = grid.IsLand(m.Mesh.LonCell[c], m.Mesh.LatCell[c])
	}

	m.recon = newReconstructor(mesh, edgeFrameOf(whole, mesh.GlobalEdge))
	m.Physics = NewConventionalSuite(m)
	m.InitBaroclinicRest()
	return m
}

// InitBaroclinicRest sets the canonical initial condition: a resting
// atmosphere with a latitude-dependent temperature structure near radiative
// equilibrium, moist near the tropical surface, ps = P0 everywhere.
func (m *Model) InitBaroclinicRest() {
	// The level factors once per level, the latitude factors once per cell.
	type level struct{ logP, powP, p, dry float64 }
	lv := make([]level, m.NLev)
	for k, sig := range m.Sig {
		lv[k].logP, lv[k].powP = eqLevel(sig)
		lv[k].p, lv[k].dry = sig*P0, math.Pow(sig, 3)
	}
	nc := m.Mesh.NCells()
	for c := 0; c < nc; c++ {
		m.Ps[c] = P0
		lat := m.Mesh.LatCell[c]
		cl := math.Cos(lat)
		tSkin := 273.15 + 28*cl*cl
		sin2 := sinSq(lat)
		for k, sig := range m.Sig {
			i := m.Idx(c, k)
			m.T[i] = eqT(sin2, cl*cl, lv[k].logP, lv[k].powP)
			if sig > 0.85 {
				w := (sig - 0.85) / 0.15
				m.T[i] = w*(tSkin-1) + (1-w)*m.T[i]
			}
			// Moisture: ~80 % of saturation in the lowest layers, drying
			// upward.
			m.Qv[i] = 0.8 * qsat(m.T[i], lv[k].p) * lv[k].dry
		}
		m.SST[c] = tSkin
	}
	for i := range m.U {
		m.U[i] = 0
	}
}

// The Held–Suarez radiative-equilibrium temperature, used both for
// initialization and by the conventional suite's radiation, is
// eqT(sin²φ, cos²φ, eqLevel(σ)).

// eqLevel returns the two factors of the equilibrium temperature that
// depend on the level only, ln(p/p0) and (p/p0)^κ.
func eqLevel(sig float64) (logP, powP float64) {
	p := sig * P0
	return math.Log(p / P0), math.Pow(p/P0, Kappa)
}

// eqT combines the equilibrium temperature's latitude factors sin²φ, cos²φ
// with its level factors.
func eqT(sin2, cos2, logP, powP float64) float64 {
	t := (315 - 60*sin2 - 10*logP*cos2) * powP
	if t < 200 {
		t = 200
	}
	return t
}

func sinSq(x float64) float64 { s := math.Sin(x); return s * s }
func cosSq(x float64) float64 { c := math.Cos(x); return c * c }

// qsat returns saturation specific humidity (kg/kg) at temperature T (K)
// and pressure p (Pa), via the Tetens formula.
func qsat(t, p float64) float64 {
	es := 610.78 * math.Exp(17.27*(t-273.15)/(t-35.85))
	q := 0.622 * es / math.Max(p-0.378*es, 1)
	return math.Min(q, 0.08)
}

// Steps returns the number of dycore substeps taken.
func (m *Model) Steps() int { return m.steps }

// SigmaP returns the pressure at full level k of column c.
func (m *Model) SigmaP(k, c int) float64 { return m.Sig[k] * m.Ps[c] }

// Idx returns the index of level k of column i — cell i of T and Qv, edge i
// of U and the flux accumulator — in the model's column-major 3-D fields.
func (m *Model) Idx(i, k int) int { return i*m.NLev + k }

// Columns returns columns [i, i+n) of a 3-D field: n·nlev contiguous values.
func (m *Model) Columns(f []float64, i, n int) []float64 {
	return f[i*m.NLev : (i+n)*m.NLev]
}

// SurfaceAir returns the lowest-level temperature and specific humidity of
// cell c, the air the surface models and the air–sea fluxes see.
func (m *Model) SurfaceAir(c int) (t, qv float64) {
	i := m.Idx(c, m.NLev-1)
	return m.T[i], m.Qv[i]
}
