package atmos

import (
	"math"

	"repro/internal/grid"
	"repro/internal/pp"
)

// This file is the atmosphere's half of the single-source kernel layer: the
// three top-profiled dycore sweeps — cell diagnostics (velocity
// reconstruction, kinetic energy, divergence), vertex vorticity, and the
// edge momentum update — live here as free kernel bodies over explicit
// argument bundles, registered in pp.Kernels and launched by the thin
// driver in dycore.go. The bodies are generic over pp.Float: the float64
// instantiation is bit-for-bit the pre-refactor arithmetic (expression
// structure and evaluation order preserved; every T() conversion is the
// identity at float64), and the float32 instantiation is the Vec-space
// mixed-precision path. Sensitive sub-expressions — the KE+geopotential
// gradient, the ln(ps) pressure-gradient term, the damping and viscosity
// differences — are evaluated in float64 inside the momentum kernel and
// converted once, so mixed precision never differences large float32
// values. The virtual-temperature/geopotential integral, continuity, tracer
// transport, and physics stay float64-only by policy (DESIGN.md
// "single-source kernels").

// Registered kernel hashes, one registration per process.
var (
	hAtmKeDiv    = pp.Kernels.MustRegister("atm.kediv", keDivKernel)
	hAtmVort     = pp.Kernels.MustRegister("atm.vort", vortKernel)
	hAtmMomentum = pp.Kernels.MustRegister("atm.momentum", atmMomentumKernel)
)

// atmGeom is the precision-typed mesh geometry the kernels read, flattened
// out of the reconstructor and IcosMesh ragged arrays into contiguous
// per-slot tables so the inner loops index raw storage. Products that the
// original sweeps formed per iteration are prefolded only where bit-safe:
// sign·Dv and sign·Dc (sign = ±1, exact), and the left-associated area
// denominators (AreaCell·re)·re.
type atmGeom[T pp.Float] struct {
	nc, ne, nv, nlev int
	re               T

	// Cell sweeps: ragged EdgesOnCell flattened to [ceStart[c], ceStart[c+1]).
	ceStart    []int32 // [nc+1]
	ceEdge     []int32 // per slot: edge index
	wX, wY, wZ []T     // per slot: reconstruction weight vector
	sdv        []T     // per slot: sign·Dv
	areaRR     []T     // per cell: (AreaCell·re)·re
	// Vertex sweeps: fixed degree 3.
	veEdge []int32 // [3*nv]
	sdc    []T     // [3*nv]: sign·Dc
	dualRR []T     // per vertex: (AreaDual·re)·re
	// Edge sweeps.
	ec1, ec2   []int32 // cells on edge
	ev1, ev2   []int32 // vertices on edge
	tX, tY, tZ []T     // edge tangent t = mid × n̂ (ẑ×n̂ direction)
}

// edgeGeomF is the float64 per-edge geometry shared by both momentum
// instantiations: the metric lengths, Coriolis parameter, and the
// step-dependent divergence-damping coefficient. The sensitive momentum
// terms are formed from these in float64 regardless of T.
type edgeGeomF struct {
	dcm, dvm []float64 // Dc·re, Dv·re
	fE       []float64 // 2Ω·sin(lat) at the edge midpoint

	damp           []float64 // Div4·dcm·dcm/dt, rebuilt when dt or Div4 changes
	dampDt, dampD4 float64
	dt, kh         float64 // current substep parameters
}

// bindStep fixes the substep parameters, rebuilding the damping table only
// when dt or the damping coefficient actually changed.
func (eg *edgeGeomF) bindStep(dt, div4, kh float64) {
	eg.dt, eg.kh = dt, kh
	if eg.dampDt == dt && eg.dampD4 == div4 {
		return
	}
	for e := range eg.damp {
		dcm := eg.dcm[e]
		eg.damp[e] = div4 * dcm * dcm / dt
	}
	eg.dampDt, eg.dampD4 = dt, div4
}

// newAtmGeomF builds the canonical float64 geometry from the mesh and the
// reconstructor; the float32 table is derived from it by narrowing.
func newAtmGeomF(mesh *grid.IcosMesh, r *reconstructor, nlev int) (*atmGeom[float64], *edgeGeomF) {
	nc, ne, nv := mesh.NCells(), mesh.NEdges(), mesh.NVertices()
	re := grid.EarthRadius
	g := &atmGeom[float64]{nc: nc, ne: ne, nv: nv, nlev: nlev, re: re}

	g.ceStart = make([]int32, nc+1)
	for c := 0; c < nc; c++ {
		g.ceStart[c+1] = g.ceStart[c] + int32(len(mesh.EdgesOnCell[c]))
	}
	nslot := int(g.ceStart[nc])
	g.ceEdge = make([]int32, nslot)
	g.wX = make([]float64, nslot)
	g.wY = make([]float64, nslot)
	g.wZ = make([]float64, nslot)
	g.sdv = make([]float64, nslot)
	g.areaRR = make([]float64, nc)
	for c := 0; c < nc; c++ {
		o := int(g.ceStart[c])
		for j, e := range mesh.EdgesOnCell[c] {
			g.ceEdge[o+j] = int32(e)
			w := r.weights[c][j]
			g.wX[o+j], g.wY[o+j], g.wZ[o+j] = w.X, w.Y, w.Z
			g.sdv[o+j] = float64(mesh.EdgeSignOnCell[c][j]) * mesh.Dv[e]
		}
		g.areaRR[c] = mesh.AreaCell[c] * re * re
	}

	g.veEdge = make([]int32, 3*nv)
	g.sdc = make([]float64, 3*nv)
	g.dualRR = make([]float64, nv)
	for v := 0; v < nv; v++ {
		for j := 0; j < 3; j++ {
			e := mesh.EdgesOnVertex[v][j]
			g.veEdge[3*v+j] = int32(e)
			g.sdc[3*v+j] = float64(mesh.EdgeSignOnVtx[v][j]) * mesh.Dc[e]
		}
		g.dualRR[v] = mesh.AreaDual[v] * re * re
	}

	g.ec1 = make([]int32, ne)
	g.ec2 = make([]int32, ne)
	g.ev1 = make([]int32, ne)
	g.ev2 = make([]int32, ne)
	g.tX = make([]float64, ne)
	g.tY = make([]float64, ne)
	g.tZ = make([]float64, ne)
	eg := &edgeGeomF{
		dcm: make([]float64, ne),
		dvm: make([]float64, ne),
		fE:  make([]float64, ne),
	}
	eg.damp = make([]float64, ne)
	for e := 0; e < ne; e++ {
		g.ec1[e] = int32(mesh.CellsOnEdge[e][0])
		g.ec2[e] = int32(mesh.CellsOnEdge[e][1])
		g.ev1[e] = int32(mesh.VerticesOnEdge[e][0])
		g.ev2[e] = int32(mesh.VerticesOnEdge[e][1])
		t := mesh.EdgeMidpoint[e].Cross(r.normal3[e])
		g.tX[e], g.tY[e], g.tZ[e] = t.X, t.Y, t.Z
		eg.dcm[e] = mesh.Dc[e] * re
		eg.dvm[e] = mesh.Dv[e] * re
		_, latE := grid.LonLat(mesh.EdgeMidpoint[e])
		eg.fE[e] = 2 * 7.292e-5 * math.Sin(latE)
	}
	return g, eg
}

// narrowGeom derives the float32 geometry table from the float64 one.
func narrowGeom(g *atmGeom[float64]) *atmGeom[float32] {
	n32 := func(src []float64) []float32 {
		dst := make([]float32, len(src))
		pp.Convert32(dst, src)
		return dst
	}
	return &atmGeom[float32]{
		nc: g.nc, ne: g.ne, nv: g.nv, nlev: g.nlev, re: float32(g.re),
		ceStart: g.ceStart, ceEdge: g.ceEdge,
		wX: n32(g.wX), wY: n32(g.wY), wZ: n32(g.wZ),
		sdv: n32(g.sdv), areaRR: n32(g.areaRR),
		veEdge: g.veEdge, sdc: n32(g.sdc), dualRR: n32(g.dualRR),
		ec1: g.ec1, ec2: g.ec2, ev1: g.ev1, ev2: g.ev2,
		tX: n32(g.tX), tY: n32(g.tY), tZ: n32(g.tZ),
	}
}

// --- cell diagnostics: reconstruction, kinetic energy, divergence ---

// keDivArgs is the cell-diagnostics bundle. The reconstructed tangent-plane
// velocity is stored per (level, cell) so the momentum kernel reuses it for
// the edge tangential wind instead of re-reconstructing both endpoint cells
// per edge per level — the same accumulation on the same inputs, so the
// reuse is bit-identical to the original nested calls.
type keDivArgs[T pp.Float] struct {
	g             *atmGeom[T]
	u             []T // [nlev*ne] edge-normal velocity
	vcx, vcy, vcz []T // [nlev*nc] reconstructed cell vector (out)
	ke, div       []T // [nlev*nc] (out)

	cells []int // iteration set; nil sweeps every cell
	rowF  func(i int)
}

func (a *keDivArgs[T]) n() int {
	if a.cells != nil {
		return len(a.cells)
	}
	return a.g.nc
}

func (a *keDivArgs[T]) cell(i int) {
	c := i
	if a.cells != nil {
		c = a.cells[i]
	}
	nlev := a.g.nlev
	k := 0
	for ; k+2 <= nlev; k += 2 {
		a.level(c, k)
		a.level(c, k+1)
	}
	if k < nlev {
		a.level(c, k)
	}
}

// level runs one (cell, level): v = Σ w_e·u_e, ke = ½|v|², div = Σ s·u·Dv·re
// over the cell area. The accumulators start at zero and add in edge order,
// matching the original CellVector/divergence loops term for term.
func (a *keDivArgs[T]) level(c, k int) {
	g := a.g
	kn := k * g.ne
	re := g.re
	var vx, vy, vz, d T
	for o := g.ceStart[c]; o < g.ceStart[c+1]; o++ {
		uE := a.u[kn+int(g.ceEdge[o])]
		vx += g.wX[o] * uE
		vy += g.wY[o] * uE
		vz += g.wZ[o] * uE
		d += g.sdv[o] * uE * re
	}
	ic := k*g.nc + c
	a.vcx[ic], a.vcy[ic], a.vcz[ic] = vx, vy, vz
	a.ke[ic] = T(0.5) * (vx*vx + vy*vy + vz*vz)
	a.div[ic] = d / g.areaRR[c]
}

func keDivKernel(s pp.Space, args any) {
	switch a := args.(type) {
	case *keDivArgs[float64]:
		s.ParallelFor(a.n(), a.rowF)
	case *keDivArgs[float32]:
		s.ParallelFor(a.n(), a.rowF)
	default:
		panic("atmos: atm.kediv launched with wrong argument bundle")
	}
}

// --- vertex vorticity ---

type vortArgs[T pp.Float] struct {
	g    *atmGeom[T]
	u    []T // [nlev*ne]
	vort []T // [nlev*nv] (out)

	verts []int // iteration set; nil sweeps every vertex
	rowF  func(i int)
}

func (a *vortArgs[T]) n() int {
	if a.verts != nil {
		return len(a.verts)
	}
	return a.g.nv
}

func (a *vortArgs[T]) vertex(i int) {
	v := i
	if a.verts != nil {
		v = a.verts[i]
	}
	nlev := a.g.nlev
	k := 0
	for ; k+2 <= nlev; k += 2 {
		a.level(v, k)
		a.level(v, k+1)
	}
	if k < nlev {
		a.level(v, k)
	}
}

// level accumulates the circulation over the vertex's three edges in the
// original += order (the leading 0 + t₀ matters for the sign of zero).
func (a *vortArgs[T]) level(v, k int) {
	g := a.g
	kn := k * g.ne
	re := g.re
	var circ T
	circ += g.sdc[3*v] * a.u[kn+int(g.veEdge[3*v])] * re
	circ += g.sdc[3*v+1] * a.u[kn+int(g.veEdge[3*v+1])] * re
	circ += g.sdc[3*v+2] * a.u[kn+int(g.veEdge[3*v+2])] * re
	a.vort[k*g.nv+v] = circ / g.dualRR[v]
}

func vortKernel(s pp.Space, args any) {
	switch a := args.(type) {
	case *vortArgs[float64]:
		s.ParallelFor(a.n(), a.rowF)
	case *vortArgs[float32]:
		s.ParallelFor(a.n(), a.rowF)
	default:
		panic("atmos: atm.vort launched with wrong argument bundle")
	}
}

// --- edge momentum update ---

// momentumArgs carries the momentum kernel's inputs: the T-typed dynamic
// fields produced by the diagnostics kernels plus the float64 thermodynamic
// state (tv, phi, lnPs) the driver computes, with the step parameters
// explicit in the shared edge geometry. Each tendency term is formed in
// float64 — exact widenings of the T inputs, so float64 stays bit-for-bit —
// and folded into the T-typed du chain with one conversion per term.
type momentumArgs[T pp.Float] struct {
	g  *atmGeom[T]
	eg *edgeGeomF

	u, newU       []T // [nlev*ne]
	vcx, vcy, vcz []T // [nlev*nc] from atm.kediv
	ke, div       []T // [nlev*nc] from atm.kediv
	vort          []T // [nlev*nv] from atm.vort
	tv, phi       []float64
	lnPs          []float64 // per-cell ln(ps), hoisted out of the edge loop

	edges []int // iteration set; nil sweeps every edge
	rowF  func(i int)
}

func (a *momentumArgs[T]) n() int {
	if a.edges != nil {
		return len(a.edges)
	}
	return a.g.ne
}

func (a *momentumArgs[T]) edge(i int) {
	e := i
	if a.edges != nil {
		e = a.edges[i]
	}
	g := a.g
	c1, c2 := int(g.ec1[e]), int(g.ec2[e])
	v1, v2 := int(g.ev1[e]), int(g.ev2[e])
	eg := a.eg
	dcm, dvm := eg.dcm[e], eg.dvm[e]
	f, damp := eg.fE[e], eg.damp[e]
	psd := a.lnPs[c2] - a.lnPs[c1]
	tx, ty, tz := g.tX[e], g.tY[e], g.tZ[e]
	dtT := T(eg.dt)
	nlev := g.nlev
	k := 0
	for ; k+2 <= nlev; k += 2 {
		a.level(e, k, c1, c2, v1, v2, tx, ty, tz, dtT, f, psd, dcm, dvm, damp)
		a.level(e, k+1, c1, c2, v1, v2, tx, ty, tz, dtT, f, psd, dcm, dvm, damp)
	}
	if k < nlev {
		a.level(e, k, c1, c2, v1, v2, tx, ty, tz, dtT, f, psd, dcm, dvm, damp)
	}
}

// level is one (edge, level) momentum update, term order exactly as the
// original sweep: Coriolis on the tangential wind, KE+geopotential
// gradient, surface-pressure gradient, divergence damping, vector
// Laplacian viscosity.
func (a *momentumArgs[T]) level(e, k, c1, c2, v1, v2 int, tx, ty, tz, dtT T, f, psd, dcm, dvm, damp float64) {
	g := a.g
	ic1, ic2 := k*g.nc+c1, k*g.nc+c2
	iv1, iv2 := k*g.nv+v1, k*g.nv+v2
	half := T(0.5)
	// Tangential wind from the stored cell reconstructions: the mean of the
	// two endpoint vectors projected on t = mid × n̂.
	ut := half*(a.vcx[ic1]+a.vcx[ic2])*tx +
		half*(a.vcy[ic1]+a.vcy[ic2])*ty +
		half*(a.vcz[ic1]+a.vcz[ic2])*tz
	eta := f + 0.5*(float64(a.vort[iv1])+float64(a.vort[iv2]))
	du := T(eta) * ut
	du -= T((float64(a.ke[ic2]) - float64(a.ke[ic1]) + a.phi[ic2] - a.phi[ic1]) / dcm)
	tvb := 0.5 * (a.tv[ic1] + a.tv[ic2])
	du -= T(Rd * tvb * psd / dcm)
	dd := float64(a.div[ic2]) - float64(a.div[ic1])
	du += T(damp * dd / dcm)
	lap := dd/dcm - (float64(a.vort[iv2])-float64(a.vort[iv1]))/dvm
	du += T(a.eg.kh * lap)
	i := k*g.ne + e
	a.newU[i] = a.u[i] + dtT*du
}

func atmMomentumKernel(s pp.Space, args any) {
	switch a := args.(type) {
	case *momentumArgs[float64]:
		s.ParallelFor(a.n(), a.rowF)
	case *momentumArgs[float32]:
		s.ParallelFor(a.n(), a.rowF)
	default:
		panic("atmos: atm.momentum launched with wrong argument bundle")
	}
}

// --- driver scratch ---

// dyScratch is the persistent per-model dycore state: the arrays the
// original dynamicsSubstep allocated per call, the geometry tables, and the
// pre-bound argument bundles. Externally visible buffers (newU, dpsDt) are
// zero-filled each substep so decomposed runs see exactly the fresh-
// allocation semantics the rank-invariance test pins.
//
// Every diagnostic array is dead between substeps — each is rebuilt (or
// zero-filled) before the next substep reads it — so the tracer and physics
// steps, which run only there, borrow tv, phi, ke, lnPs and dpsDt as their
// whole-field scratch instead of holding arrays of their own.
type dyScratch struct {
	geo *atmGeom[float64]
	eg  *edgeGeomF

	// Level constants of the hydrostatic integral: ln(σ_bot/σ_k) from the
	// interface below level k up to its mid-point, and ln(σ_bot/σ_top) across
	// the layer.
	lnMid, lnLayer []float64

	tv, phi, lnPs []float64 // thermodynamic diagnostics (always float64)
	vcx, vcy, vcz []float64
	ke, div, vort []float64
	newU, dpsDt   []float64

	bKeDiv *keDivArgs[float64]
	bVort  *vortArgs[float64]
	bMom   *momentumArgs[float64]

	m32 *dyMixed32
}

// dyMixed32 is the float32 mirror state for the mixed-precision path.
type dyMixed32 struct {
	geo *atmGeom[float32]

	u             []float32
	vcx, vcy, vcz []float32
	ke, div, vort []float32
	newU          []float32

	bKeDiv *keDivArgs[float32]
	bVort  *vortArgs[float32]
	bMom   *momentumArgs[float32]
}

// dyEnsure builds the scratch on first use.
func (m *Model) dyEnsure() *dyScratch {
	if m.dy != nil {
		return m.dy
	}
	mesh := m.Mesh
	nc, ne, nv := mesh.NCells(), mesh.NEdges(), mesh.NVertices()
	nlev := m.NLev
	geo, eg := newAtmGeomF(mesh, m.recon, nlev)
	s := &dyScratch{
		geo:   geo,
		eg:    eg,
		tv:    make([]float64, nlev*nc),
		phi:   make([]float64, nlev*nc),
		lnPs:  make([]float64, nc),
		vcx:   make([]float64, nlev*nc),
		vcy:   make([]float64, nlev*nc),
		vcz:   make([]float64, nlev*nc),
		ke:    make([]float64, nlev*nc),
		div:   make([]float64, nlev*nc),
		vort:  make([]float64, nlev*nv),
		newU:  make([]float64, nlev*ne),
		dpsDt: make([]float64, nc),

		lnMid:   make([]float64, nlev),
		lnLayer: make([]float64, nlev),
	}
	for k := 0; k < nlev; k++ {
		sTop, sBot := m.sigInt(k), m.sigInt(k+1)
		s.lnMid[k] = math.Log(sBot / m.Sig[k])
		s.lnLayer[k] = math.Log(sBot / sTop)
	}
	s.bKeDiv = &keDivArgs[float64]{g: geo, vcx: s.vcx, vcy: s.vcy, vcz: s.vcz, ke: s.ke, div: s.div}
	s.bKeDiv.rowF = s.bKeDiv.cell
	s.bVort = &vortArgs[float64]{g: geo, vort: s.vort}
	s.bVort.rowF = s.bVort.vertex
	s.bMom = &momentumArgs[float64]{
		g: geo, eg: eg,
		vcx: s.vcx, vcy: s.vcy, vcz: s.vcz, ke: s.ke, div: s.div, vort: s.vort,
		tv: s.tv, phi: s.phi, lnPs: s.lnPs,
	}
	s.bMom.rowF = s.bMom.edge
	if m.kprec == pp.PrecMixed {
		g32 := narrowGeom(geo)
		m32 := &dyMixed32{
			geo:  g32,
			u:    make([]float32, nlev*ne),
			vcx:  make([]float32, nlev*nc),
			vcy:  make([]float32, nlev*nc),
			vcz:  make([]float32, nlev*nc),
			ke:   make([]float32, nlev*nc),
			div:  make([]float32, nlev*nc),
			vort: make([]float32, nlev*nv),
			newU: make([]float32, nlev*ne),
		}
		m32.bKeDiv = &keDivArgs[float32]{g: g32, u: m32.u, vcx: m32.vcx, vcy: m32.vcy, vcz: m32.vcz, ke: m32.ke, div: m32.div}
		m32.bKeDiv.rowF = m32.bKeDiv.cell
		m32.bVort = &vortArgs[float32]{g: g32, u: m32.u, vort: m32.vort}
		m32.bVort.rowF = m32.bVort.vertex
		m32.bMom = &momentumArgs[float32]{
			g: g32, eg: eg,
			u: m32.u, newU: m32.newU,
			vcx: m32.vcx, vcy: m32.vcy, vcz: m32.vcz, ke: m32.ke, div: m32.div, vort: m32.vort,
			tv: s.tv, phi: s.phi, lnPs: s.lnPs,
		}
		m32.bMom.rowF = m32.bMom.edge
		s.m32 = m32
	}
	m.dy = s
	return s
}

// ---------------------------------------------------------------------------
// Radiation: the single-source two-stream sweep.
//
// Profiling the coupled model puts the conventional suite's correlated-k
// radiation at ~45% of total CPU — nearly all of it math.Exp — which makes
// it the one physics loop worth porting into the kernel layer. Unlike the
// row kernels above it is a per-column body invoked from inside the physics
// column sweep (already a ParallelFor), so it is a generic function rather
// than a registered launch: one body, two instantiations, selected by the
// suite from the model's kernel precision.
//
// Bit-for-bit contract of the float64 instantiation: path, tau, the
// attenuation/emissivity recurrences, and the final flux expressions keep
// the historical operand grouping exactly; the per-g-point kAbs tables and
// the per-level Planck emission are hoisted out of their loops, but every
// hoisted entry is the identical expression the inner loop computed, so
// the values (and therefore every downstream bit) are unchanged.
// ---------------------------------------------------------------------------

// twoStreamRad attenuates each shortwave g-point's direct beam down the
// column and sweeps each longwave g-point's emissivity recurrence top-down.
// q and tcol are the column's specific humidity and temperature, dsig the
// sigma-layer thicknesses, ps the diagnosed surface pressure, mu0 the
// cosine of the solar zenith angle, swK/lwK the g-point absorption tables.
func twoStreamRad[T pp.Float](q, tcol, dsig []float64, ps, mu0, s0 float64, swK, lwK []float64) (gsw, glw float64) {
	nlev := len(tcol)
	// The two per-level work arrays live on the stack for any realistic
	// level count; nothing below lets them escape.
	var stack [2 * 64]T
	work := stack[:]
	if 2*nlev > len(stack) {
		work = make([]T, 2*nlev)
	}
	// Per-layer absorber path: water vapour mass (kg/m²) plus a small dry
	// (well-mixed gas) contribution.
	path := work[:nlev]
	for k := 0; k < nlev; k++ {
		lm := ps * dsig[k] / Gravity
		path[k] = T(q[k]*lm + 1e-4*lm)
	}

	// --- Shortwave: direct-beam attenuation per g-point ---
	if mu0 > 0 {
		mu := T(mu0)
		var down T
		for g := range swK {
			kAbs := T(swK[g])
			var tau T
			for k := 0; k < nlev; k++ {
				tau += kAbs * path[k]
			}
			down += pp.Exp(-tau / mu)
		}
		gsw = s0 * mu0 * (float64(down) / float64(len(swK))) * (1 - 0.15) // 15% Rayleigh/aerosol loss
	}

	// --- Longwave: emissivity sweep per g-point, top down ---
	const sb = 5.67e-8
	planck := work[nlev : 2*nlev]
	for k := 0; k < nlev; k++ {
		tk := T(tcol[k])
		planck[k] = T(sb) * tk * tk * tk * tk
	}
	lit := T(1.66) // diffusivity factor
	var glwSum T
	for g := range lwK {
		kAbs := T(lwK[g])
		var d T // downward flux of this g-point (normalized weight 1)
		for k := 0; k < nlev; k++ {
			trans := pp.Exp(-kAbs * path[k] * lit)
			d = d*trans + planck[k]*(1-trans)
		}
		glwSum += d
	}
	glw = float64(glwSum) / float64(len(lwK))
	return gsw, glw
}
