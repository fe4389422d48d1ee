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
// driver in dycore.go. The bodies are generic over pp.Float: every T()
// conversion is the identity at float64, and the float32 instantiation is
// the Vec-space mixed-precision path. Sensitive sub-expressions — the
// KE+geopotential and ln(ps) pressure gradients, the damping and viscosity
// differences — are evaluated in float64 inside the momentum kernel and
// converted once, so mixed precision never differences large float32
// values. The virtual-temperature/geopotential integral, continuity, tracer
// transport, and physics stay float64-only by policy (DESIGN.md
// "single-source kernels").
//
// Operand grouping (DESIGN.md "Operand grouping, re-baselined at PR 24"): a
// level or slot loop multiplies by a tabulated reciprocal where the equations
// divide, and constant factors are folded into the tables. What is written
// here is the model's arithmetic — reference_test.go pins it bit-for-bit,
// drift_test.go bounds its distance from the dividing form — so regrouping
// it is a re-baseline, not a refactor.

// Registered kernel hashes, one registration per process.
var (
	hAtmKeDiv    = pp.Kernels.MustRegister("atm.kediv", keDivKernel)
	hAtmVort     = pp.Kernels.MustRegister("atm.vort", vortKernel)
	hAtmMomentum = pp.Kernels.MustRegister("atm.momentum", atmMomentumKernel)
)

// atmGeom is the precision-typed mesh geometry the kernels read, flattened
// out of the reconstructor and IcosMesh ragged arrays into contiguous
// per-slot tables so the inner loops index raw storage, with every factor a
// loop would apply per iteration folded in: the signed metric lengths carry
// the Earth radius, the areas are reciprocals, and the edge tangent carries
// the ½ of the two-cell mean (a power of two, so that fold is exact).
type atmGeom[T pp.Float] struct {
	nc, ne, nv, nlev int
	re               T

	// Cell sweeps: ragged EdgesOnCell flattened to [ceStart[c], ceStart[c+1]).
	ceStart    []int32 // [nc+1]
	ceEdge     []int32 // per slot: edge index
	ceNbr      []int32 // per slot: the cell across that edge
	sgn        []int8  // per slot: ±1, +1 where the edge normal points out of the cell
	wX, wY, wZ []T     // per slot: reconstruction weight vector
	sdv        []T     // per slot: sign·Dv·re
	areaRR     []T     // per cell: 1/((AreaCell·re)·re)
	// Vertex sweeps: fixed degree 3.
	veEdge []int32 // [3*nv]
	sdc    []T     // [3*nv]: sign·Dc·re
	dualRR []T     // per vertex: 1/((AreaDual·re)·re)
	// Edge sweeps.
	ec1, ec2   []int32 // cells on edge
	ev1, ev2   []int32 // vertices on edge
	tX, tY, tZ []T     // half the edge tangent, ½·(mid × n̂) (ẑ×n̂ direction)
}

// edgeGeomF is the float64 per-edge geometry shared by both momentum
// instantiations: the reciprocal metric lengths, Coriolis parameter, and the
// step-dependent divergence-damping coefficient. The sensitive momentum
// terms are formed from these in float64 regardless of T.
type edgeGeomF struct {
	rdcm, rdvm []float64 // 1/(Dc·re), 1/(Dv·re)
	fE         []float64 // 2Ω·sin(lat) at the edge midpoint

	damp           []float64 // Div4·(Dc·re)²/dt · 1/(Dc·re), rebuilt when dt or Div4 changes
	dampDt, dampD4 float64
	dt, dtG, kh    float64 // current substep parameters; dtG = dt/g
}

// bindStep fixes the substep parameters, rebuilding the damping table only
// when dt or the damping coefficient actually changed.
func (eg *edgeGeomF) bindStep(dt, div4, kh float64) {
	eg.dt, eg.dtG, eg.kh = dt, dt/Gravity, kh
	if eg.dampDt == dt && eg.dampD4 == div4 {
		return
	}
	for e, rdcm := range eg.rdcm {
		eg.damp[e] = div4 / (rdcm * dt)
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
	g.ceNbr = make([]int32, nslot)
	g.sgn = make([]int8, nslot)
	g.wX = make([]float64, nslot)
	g.wY = make([]float64, nslot)
	g.wZ = make([]float64, nslot)
	g.sdv = make([]float64, nslot)
	g.areaRR = make([]float64, nc)
	for c := 0; c < nc; c++ {
		o := int(g.ceStart[c])
		for j, e := range mesh.EdgesOnCell[c] {
			g.ceEdge[o+j] = int32(e)
			g.ceNbr[o+j] = int32(mesh.CellsOnCell[c][j])
			g.sgn[o+j] = int8(mesh.EdgeSignOnCell[c][j])
			w := r.weights[c][j]
			g.wX[o+j], g.wY[o+j], g.wZ[o+j] = w.X, w.Y, w.Z
			g.sdv[o+j] = float64(mesh.EdgeSignOnCell[c][j]) * mesh.Dv[e] * re
		}
		g.areaRR[c] = 1 / (mesh.AreaCell[c] * re * re)
	}

	g.veEdge = make([]int32, 3*nv)
	g.sdc = make([]float64, 3*nv)
	g.dualRR = make([]float64, nv)
	for v := 0; v < nv; v++ {
		for j := 0; j < 3; j++ {
			e := mesh.EdgesOnVertex[v][j]
			g.veEdge[3*v+j] = int32(e)
			g.sdc[3*v+j] = float64(mesh.EdgeSignOnVtx[v][j]) * mesh.Dc[e] * re
		}
		g.dualRR[v] = 1 / (mesh.AreaDual[v] * re * re)
	}

	g.ec1 = make([]int32, ne)
	g.ec2 = make([]int32, ne)
	g.ev1 = make([]int32, ne)
	g.ev2 = make([]int32, ne)
	g.tX = make([]float64, ne)
	g.tY = make([]float64, ne)
	g.tZ = make([]float64, ne)
	eg := &edgeGeomF{
		rdcm: make([]float64, ne),
		rdvm: make([]float64, ne),
		fE:   make([]float64, ne),
		damp: make([]float64, ne),
	}
	for e := 0; e < ne; e++ {
		g.ec1[e] = int32(mesh.CellsOnEdge[e][0])
		g.ec2[e] = int32(mesh.CellsOnEdge[e][1])
		g.ev1[e] = int32(mesh.VerticesOnEdge[e][0])
		g.ev2[e] = int32(mesh.VerticesOnEdge[e][1])
		t := mesh.EdgeMidpoint[e].Cross(r.normal3[e])
		g.tX[e], g.tY[e], g.tZ[e] = 0.5*t.X, 0.5*t.Y, 0.5*t.Z
		eg.rdcm[e] = 1 / (mesh.Dc[e] * re)
		eg.rdvm[e] = 1 / (mesh.Dv[e] * re)
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
		ceStart: g.ceStart, ceEdge: g.ceEdge, ceNbr: g.ceNbr, sgn: g.sgn,
		wX: n32(g.wX), wY: n32(g.wY), wZ: n32(g.wZ),
		sdv: n32(g.sdv), areaRR: n32(g.areaRR),
		veEdge: g.veEdge, sdc: n32(g.sdc), dualRR: n32(g.dualRR),
		ec1: g.ec1, ec2: g.ec2, ev1: g.ev1, ev2: g.ev2,
		tX: n32(g.tX), tY: n32(g.tY), tZ: n32(g.tZ),
	}
}

// --- cell diagnostics: reconstruction, kinetic energy, divergence ---

// cellDiag is one (cell, level) of the cell diagnostics the momentum kernel
// reads together: the reconstructed tangent-plane velocity, its kinetic
// energy, and the divergence. Dycore scratch is cell-major, level-inner
// (index c·nlev+k) like the model state, so an edge update streams two
// contiguous columns.
type cellDiag[T pp.Float] struct {
	vx, vy, vz, ke, div T
}

// thermo is one (cell, level) of the float64 thermodynamic diagnostics:
// geopotential and virtual temperature at the full level.
type thermo struct {
	phi, tv float64
}

// keDivArgs is the cell-diagnostics bundle. The reconstructed tangent-plane
// velocity is stored per (cell, level) so the momentum kernel reuses it for
// the edge tangential wind instead of re-reconstructing both endpoint cells
// per edge per level — the same accumulation on the same inputs, so the
// reuse is bit-identical to the original nested calls.
type keDivArgs[T pp.Float] struct {
	g  *atmGeom[T]
	u  []T           // [ne*nlev] edge-normal velocity, edge-major model state
	cd []cellDiag[T] // [nc*nlev] (out)

	cells []int // iteration set; nil sweeps every cell
	rowF  func(i int)
}

func (a *keDivArgs[T]) n() int {
	if a.cells != nil {
		return len(a.cells)
	}
	return a.g.nc
}

// cell runs one column: v = Σ w_e·u_e, ke = ½|v|², div = (Σ s·Dv·re·u) over
// the cell area. The cell's slots are walked once per pair of levels with
// one set of accumulators per level; each level's accumulators start at
// zero and add in edge order.
func (a *keDivArgs[T]) cell(i int) {
	c := at(a.cells, i)
	g := a.g
	nlev := g.nlev
	lo, hi := g.ceStart[c], g.ceStart[c+1]
	edges := g.ceEdge[lo:hi]
	wX, wY, wZ, sdv := g.wX[lo:hi], g.wY[lo:hi], g.wZ[lo:hi], g.sdv[lo:hi]
	wX, wY, wZ, sdv = wX[:len(edges)], wY[:len(edges)], wZ[:len(edges)], sdv[:len(edges)]
	rArea := g.areaRR[c]
	out := a.cd[c*nlev : (c+1)*nlev]
	u := a.u
	half := T(0.5)
	k := 0
	for ; k+2 <= nlev; k += 2 {
		var vx0, vy0, vz0, d0, vx1, vy1, vz1, d1 T
		for j, e := range edges {
			ie := int(e)*nlev + k
			uE0, uE1 := u[ie], u[ie+1]
			vx0 += wX[j] * uE0
			vy0 += wY[j] * uE0
			vz0 += wZ[j] * uE0
			d0 += sdv[j] * uE0
			vx1 += wX[j] * uE1
			vy1 += wY[j] * uE1
			vz1 += wZ[j] * uE1
			d1 += sdv[j] * uE1
		}
		out[k] = cellDiag[T]{vx0, vy0, vz0, half * (vx0*vx0 + vy0*vy0 + vz0*vz0), d0 * rArea}
		out[k+1] = cellDiag[T]{vx1, vy1, vz1, half * (vx1*vx1 + vy1*vy1 + vz1*vz1), d1 * rArea}
	}
	if k < nlev {
		var vx, vy, vz, d T
		for j, e := range edges {
			uE := u[int(e)*nlev+k]
			vx += wX[j] * uE
			vy += wY[j] * uE
			vz += wZ[j] * uE
			d += sdv[j] * uE
		}
		out[k] = cellDiag[T]{vx, vy, vz, half * (vx*vx + vy*vy + vz*vz), d * rArea}
	}
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
	u    []T // [ne*nlev], edge-major
	vort []T // [nv*nlev] (out), vertex-major

	verts []int // iteration set; nil sweeps every vertex
	rowF  func(i int)
}

func (a *vortArgs[T]) n() int {
	if a.verts != nil {
		return len(a.verts)
	}
	return a.g.nv
}

// vertex accumulates the circulation over the vertex's three edges in +=
// order (the leading 0 + t₀ matters for the sign of zero), the three edge
// indices and sign·Dc·re loaded once for the whole column.
func (a *vortArgs[T]) vertex(i int) {
	v := at(a.verts, i)
	g := a.g
	nlev := g.nlev
	e0, e1, e2 := int(g.veEdge[3*v]), int(g.veEdge[3*v+1]), int(g.veEdge[3*v+2])
	s0, s1, s2 := g.sdc[3*v], g.sdc[3*v+1], g.sdc[3*v+2]
	rDual := g.dualRR[v]
	out := a.vort[v*nlev : (v+1)*nlev]
	u0 := a.u[e0*nlev : (e0+1)*nlev][:len(out)]
	u1 := a.u[e1*nlev : (e1+1)*nlev][:len(out)]
	u2 := a.u[e2*nlev : (e2+1)*nlev][:len(out)]
	for k := range out {
		var circ T
		circ += s0 * u0[k]
		circ += s1 * u1[k]
		circ += s2 * u2[k]
		out[k] = circ * rDual
	}
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
// state (th, lnPs) the driver computes, with the step parameters explicit in
// the shared edge geometry. Each tendency term is formed in float64 from
// exact widenings of the T inputs and folded into the T-typed du chain with
// one conversion per term.
type momentumArgs[T pp.Float] struct {
	g  *atmGeom[T]
	eg *edgeGeomF

	u, newU []T           // [ne*nlev], edge-major
	cd      []cellDiag[T] // [nc*nlev] from atm.kediv
	vort    []T           // [nv*nlev] from atm.vort
	th      []thermo      // [nc*nlev]
	lnPs    []float64     // per-cell ln(ps), hoisted out of the edge loop

	edges []int // iteration set; nil sweeps every edge
	rowF  func(i int)
}

func (a *momentumArgs[T]) n() int {
	if a.edges != nil {
		return len(a.edges)
	}
	return a.g.ne
}

// edge is one edge's momentum update over the column: Coriolis on the
// tangential wind, the KE+geopotential and surface-pressure gradients (one
// sum, one 1/(Dc·re)), divergence damping, vector Laplacian viscosity. The
// endpoint and vertex columns are sliced once; the level loop never divides.
func (a *momentumArgs[T]) edge(i int) {
	e := at(a.edges, i)
	g := a.g
	nlev := g.nlev
	c1, c2 := int(g.ec1[e]), int(g.ec2[e])
	v1, v2 := int(g.ev1[e]), int(g.ev2[e])
	eg := a.eg
	rdcm, rdvm := eg.rdcm[e], eg.rdvm[e]
	f, damp, kh := eg.fE[e], eg.damp[e], eg.kh
	psd := a.lnPs[c2] - a.lnPs[c1]
	tx, ty, tz := g.tX[e], g.tY[e], g.tZ[e]
	dtT := T(eg.dt)
	// Re-slicing every column to the common length lets the compiler drop
	// the per-level bounds checks.
	cd1 := a.cd[c1*nlev : (c1+1)*nlev]
	cd2 := a.cd[c2*nlev : (c2+1)*nlev][:len(cd1)]
	th1 := a.th[c1*nlev : (c1+1)*nlev][:len(cd1)]
	th2 := a.th[c2*nlev : (c2+1)*nlev][:len(cd1)]
	w1 := a.vort[v1*nlev : (v1+1)*nlev][:len(cd1)]
	w2 := a.vort[v2*nlev : (v2+1)*nlev][:len(cd1)]
	u := a.u[e*nlev : (e+1)*nlev][:len(cd1)]
	newU := a.newU[e*nlev : (e+1)*nlev][:len(cd1)]
	for k := range cd1 {
		p1, p2 := &cd1[k], &cd2[k]
		t1, t2 := &th1[k], &th2[k]
		// Tangential wind: the two stored cell vectors summed, on the half tangent.
		ut := (p1.vx+p2.vx)*tx + (p1.vy+p2.vy)*ty + (p1.vz+p2.vz)*tz
		eta := f + 0.5*(float64(w1[k])+float64(w2[k]))
		du := T(eta) * ut
		tvb := 0.5 * (t1.tv + t2.tv)
		du -= T((float64(p2.ke) - float64(p1.ke) + t2.phi - t1.phi + Rd*tvb*psd) * rdcm)
		dd := float64(p2.div) - float64(p1.div)
		du += T(damp * dd)
		lap := dd*rdcm - (float64(w2[k])-float64(w1[k]))*rdvm
		du += T(kh * lap)
		newU[k] = u[k] + dtT*du
	}
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
// original dynamicsSubstep allocated per call, the geometry tables, the
// pre-bound kernel argument bundles, and the float64-only row bodies of
// dycore.go bound once as method values (so a substep allocates no
// closure). The externally visible buffer newU is zero-filled each substep
// so decomposed runs see exactly the fresh-allocation semantics the
// rank-invariance test pins.
//
// Every scratch array but th is dead between substeps — each is rebuilt (or
// zero-filled) before the next substep reads it — so the work that runs only
// there borrows it instead of holding arrays of its own: the continuity
// edge totals take newU[:ne] ahead of its zero-fill; the tracer step takes
// newU[:2·nlev·nc] and vort[:nlev·nc] (ne = 3nc−6, nv = 2nc−4) for θ and
// the two transported fields, and lnPs for the window's old ps; the physics
// step takes lnPs and vort[:nc] for the cell momentum tendencies. th is never
// borrowed: it carries tv/φ from one substep to the next until T or qv
// changes (Model.thFresh).
type dyScratch struct {
	m   *Model
	geo *atmGeom[float64]
	eg  *edgeGeomF

	// Level constants of the hydrostatic integral: ln(σ_bot/σ_k) from the
	// interface below level k up to its mid-point, and ln(σ_bot/σ_top) across
	// the layer; and the Exner function's level factor σ_k^κ with its reciprocal.
	lnMid, lnLayer []float64
	sigK, rsigK    []float64

	th   []thermo            // [nc*nlev] thermodynamic diagnostics (always float64)
	lnPs []float64           // [nc]
	cd   []cellDiag[float64] // [nc*nlev]
	vort []float64           // [nv*nlev]
	newU []float64           // [ne*nlev]

	bKeDiv *keDivArgs[float64]
	bVort  *vortArgs[float64]
	bMom   *momentumArgs[float64]

	// Iteration sets (see sweep): extended cells, owned cells, computed edges
	// and vertices, refreshed from the model's decomposition at the top of
	// each step; all nil when replicated.
	ext, owned, comp, verts []int

	// The float64-only row bodies of dycore.go, bound once.
	thermoF, lnPsF, contEdgeF, contCellF func(i int)
	thetaF, transportF, tracerStoreF     func(i int)

	m32 *dyMixed32
}

// dyMixed32 is the float32 mirror state for the mixed-precision path.
type dyMixed32 struct {
	geo *atmGeom[float32]

	u    []float32
	cd   []cellDiag[float32]
	vort []float32
	newU []float32

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
		m:    m,
		geo:  geo,
		eg:   eg,
		th:   make([]thermo, nc*nlev),
		lnPs: make([]float64, nc),
		cd:   make([]cellDiag[float64], nc*nlev),
		vort: make([]float64, nv*nlev),
		newU: make([]float64, ne*nlev),

		lnMid:   make([]float64, nlev),
		lnLayer: make([]float64, nlev),
		sigK:    make([]float64, nlev),
		rsigK:   make([]float64, nlev),
	}
	for k := 0; k < nlev; k++ {
		sTop, sBot := m.sigInt(k), m.sigInt(k+1)
		s.lnMid[k] = math.Log(sBot / m.Sig[k])
		s.lnLayer[k] = math.Log(sBot / sTop)
		s.sigK[k] = math.Pow(m.Sig[k], Kappa)
		s.rsigK[k] = 1 / s.sigK[k]
	}
	s.bKeDiv = &keDivArgs[float64]{g: geo, cd: s.cd}
	s.bKeDiv.rowF = s.bKeDiv.cell
	s.bVort = &vortArgs[float64]{g: geo, vort: s.vort}
	s.bVort.rowF = s.bVort.vertex
	s.bMom = &momentumArgs[float64]{g: geo, eg: eg, cd: s.cd, vort: s.vort, th: s.th, lnPs: s.lnPs}
	s.bMom.rowF = s.bMom.edge
	s.thermoF, s.lnPsF, s.contEdgeF, s.contCellF = s.thermoCell, s.lnPsCell, s.contEdge, s.contCell
	s.thetaF, s.transportF, s.tracerStoreF = s.thetaCell, s.transport2, s.tracerStore
	if m.kprec == pp.PrecMixed {
		g32 := narrowGeom(geo)
		m32 := &dyMixed32{
			geo:  g32,
			u:    make([]float32, ne*nlev),
			cd:   make([]cellDiag[float32], nc*nlev),
			vort: make([]float32, nv*nlev),
			newU: make([]float32, ne*nlev),
		}
		m32.bKeDiv = &keDivArgs[float32]{g: g32, u: m32.u, cd: m32.cd}
		m32.bKeDiv.rowF = m32.bKeDiv.cell
		m32.bVort = &vortArgs[float32]{g: g32, u: m32.u, vort: m32.vort}
		m32.bVort.rowF = m32.bVort.vertex
		m32.bMom = &momentumArgs[float32]{
			g: g32, eg: eg,
			u: m32.u, newU: m32.newU,
			cd: m32.cd, vort: m32.vort, th: s.th, lnPs: s.lnPs,
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
// The conventional suite's correlated-k radiation is the one physics loop
// ported into the kernel layer: 1 232 exponentials per sunlit column made it
// 29 % of coupled CPU when it ran on 1 386 columns per ocean-coupling
// interval (EXPERIMENTS.md "Radiation step and hold"); on its own time step it
// runs on 642. Unlike the row kernels above it is a per-column body invoked
// from inside the physics column sweep (already a ParallelFor), so it is a
// generic function rather than a registered launch: one body, two
// instantiations, selected by the suite from the model's kernel precision.
//
// Contract of the float64 instantiation: path, tau, the attenuation and
// emissivity recurrences and the final flux expressions keep the historical
// operand grouping exactly; the per-g-point kAbs tables, the per-level Planck
// emission and the column's exponential arguments are hoisted out of their
// loops, each hoisted entry the identical expression the inner loop
// computed. The exponential itself is pp's table-driven one (≤ 0.51 ulp, the
// same bits on every host), not math.Exp, so GSW/GLW differ from the
// pre-table history in the last places (DESIGN.md "Single-source kernels").
// ---------------------------------------------------------------------------

// twoStreamRad attenuates each shortwave g-point's direct beam down the
// column and sweeps each longwave g-point's emissivity recurrence top-down.
// q and tcol are the column's specific humidity and temperature, dsig the
// sigma-layer thicknesses, ps the diagnosed surface pressure, mu0 the
// cosine of the solar zenith angle, swK/lwK the g-point absorption tables.
func twoStreamRad[T pp.Float](q, tcol, dsig []float64, ps, mu0, s0 float64, swK, lwK []float64) (gsw, glw float64) {
	nlev := len(tcol)
	nsw := len(swK)
	if mu0 <= 0 {
		nsw = 0 // no sun, no short-wave arguments
	}
	// Two per-level arrays and every exponential argument of the column —
	// one per short-wave g-point, one per long-wave (g-point, level) — in one
	// block: on the stack at the default g-point counts up to 8 levels, and
	// nothing below lets it escape.
	nexp := nsw + len(lwK)*nlev
	var stack [2*8 + 112 + 140*8]T
	work := stack[:]
	if 2*nlev+nexp > len(stack) {
		work = make([]T, 2*nlev+nexp)
	}
	// Per-layer absorber path: water vapour mass (kg/m²) plus a small dry
	// (well-mixed gas) contribution.
	path := work[:nlev]
	for k := 0; k < nlev; k++ {
		lm := ps * dsig[k] / Gravity
		path[k] = T(q[k]*lm + 1e-4*lm)
	}
	const sb = 5.67e-8
	planck := work[nlev : 2*nlev]
	for k := 0; k < nlev; k++ {
		tk := T(tcol[k])
		planck[k] = T(sb) * tk * tk * tk * tk
	}

	// Every optical depth first, then one ExpInto over the lot: the generic
	// sweep pays the type dispatch once per column, and the exponential's
	// loop runs without the recurrences' dependency chains in its way.
	trans := work[2*nlev : 2*nlev+nexp]
	swT, lwT := trans[:nsw], trans[nsw:]
	mu := T(mu0)
	for g := range swT {
		kAbs := T(swK[g])
		var tau T
		for k := 0; k < nlev; k++ {
			tau += kAbs * path[k]
		}
		swT[g] = -tau / mu
	}
	lit := T(1.66) // diffusivity factor
	for g := range lwK {
		kAbs := T(lwK[g])
		col := lwT[g*nlev : (g+1)*nlev]
		for k := range col {
			col[k] = -kAbs * path[k] * lit
		}
	}
	pp.ExpInto(trans, trans)

	// --- Shortwave: direct-beam attenuation per g-point ---
	if nsw > 0 {
		var down T
		for _, tr := range swT {
			down += tr
		}
		gsw = s0 * mu0 * (float64(down) / float64(nsw)) * (1 - 0.15) // 15% Rayleigh/aerosol loss
	}

	// --- Longwave: emissivity sweep per g-point, top down ---
	var glwSum T
	for g := range lwK {
		var d T // downward flux of this g-point (normalized weight 1)
		for k, tr := range lwT[g*nlev : (g+1)*nlev] {
			d = d*tr + planck[k]*(1-tr)
		}
		glwSum += d
	}
	glw = float64(glwSum) / float64(len(lwK))
	return gsw, glw
}
