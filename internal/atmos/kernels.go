package atmos

import (
	"math"

	"repro/internal/grid"
	"repro/internal/pp"
)

// This file is the atmosphere's half of the registered kernel layer: the
// three top-profiled dycore sweeps — cell diagnostics (velocity
// reconstruction, kinetic energy, divergence), vertex vorticity, and the
// edge momentum update — live here as free kernel bodies over explicit
// argument bundles, registered in pp.Kernels and launched by the thin
// driver in dycore.go; continuity, tracer transport and the hydrostatic
// integral are dyScratch methods in dycore.go instead (DESIGN.md
// "Registered kernels").
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

// atmGeom is the mesh metric the kernels read, with every factor a loop
// would apply per iteration folded in: the signed metric lengths carry the
// Earth radius, the areas are reciprocals, and the edge tangent carries the
// ½ of the two-cell mean (a power of two, so that fold is exact). It holds
// float tables only; the kernels index them through the mesh's own int32
// topology (cell slots, edge pairs, vertex triples), read in place.
type atmGeom struct {
	mesh             *grid.IcosMesh
	nc, ne, nv, nlev int
	re               float64

	// Cell sweeps, per IcosMesh slot.
	wX, wY, wZ []float64 // reconstruction weight vector, the reconstructor's own tables
	sdv        []float64 // sign·Dv·re
	areaRR     []float64 // per cell: 1/((AreaCell·re)·re)
	// Vertex sweeps: fixed degree 3.
	sdc    []float64 // [3*nv]: sign·Dc·re
	dualRR []float64 // per vertex: 1/((AreaDual·re)·re)
	// Edge sweeps.
	tX, tY, tZ []float64 // half the edge tangent, ½·(mid × n̂) (ẑ×n̂ direction), the edge frame's
}

// edgeGeomF is the per-edge geometry of the momentum kernel: the reciprocal
// metric lengths, Coriolis parameter, and the step-dependent
// divergence-damping coefficient.
type edgeGeomF struct {
	rdcm, rdvm []float64 // 1/(Dc·re), 1/(Dv·re)
	fE         []float64 // 2Ω·sin(lat) at the edge midpoint, the edge frame's

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

// newAtmGeomF builds the geometry tables from the mesh and the
// reconstructor.
func newAtmGeomF(mesh *grid.IcosMesh, r *reconstructor, nlev int) (*atmGeom, *edgeGeomF) {
	nc, ne, nv := mesh.NCells(), mesh.NEdges(), mesh.NVertices()
	re := grid.EarthRadius
	g := &atmGeom{mesh: mesh, nc: nc, ne: ne, nv: nv, nlev: nlev, re: re,
		wX: r.wX, wY: r.wY, wZ: r.wZ}

	g.sdv = make([]float64, len(mesh.SlotEdge))
	for s, e := range mesh.SlotEdge {
		g.sdv[s] = float64(mesh.SlotSign[s]) * mesh.Dv[e] * re
	}
	g.areaRR = make([]float64, nc)
	for c := range g.areaRR {
		g.areaRR[c] = 1 / (mesh.AreaCell[c] * re * re)
	}

	g.sdc = make([]float64, 3*nv)
	g.dualRR = make([]float64, nv)
	for v := 0; v < nv; v++ {
		for j, e := range mesh.EdgesOnVertex[v] {
			g.sdc[3*v+j] = float64(mesh.EdgeSignOnVtx[v][j]) * mesh.Dc[e] * re
		}
		g.dualRR[v] = 1 / (mesh.AreaDual[v] * re * re)
	}

	g.tX, g.tY, g.tZ = r.tX, r.tY, r.tZ
	eg := &edgeGeomF{
		rdcm: make([]float64, ne),
		rdvm: make([]float64, ne),
		fE:   r.fE,
		damp: make([]float64, ne),
	}
	for e := 0; e < ne; e++ {
		eg.rdcm[e] = 1 / (mesh.Dc[e] * re)
		eg.rdvm[e] = 1 / (mesh.Dv[e] * re)
	}
	return g, eg
}

// --- cell diagnostics: reconstruction, kinetic energy, divergence ---

// The cell diagnostics the momentum kernel reads together are cdW values per
// (cell, level) of one flat slab: the reconstructed tangent-plane velocity
// (vx, vy, vz), its kinetic energy, and the divergence, at (c·nlev+k)·cdW
// plus the offsets below. Dycore scratch is cell-major, level-inner like the
// model state, so an edge update streams two contiguous columns.
const (
	cdVx = iota
	cdVy
	cdVz
	cdKe
	cdDiv
	cdW
)

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
type keDivArgs struct {
	g  *atmGeom
	u  []float64 // [ne*nlev] edge-normal velocity, edge-major model state
	cd []float64 // [nc*nlev*cdW] (out)

	rowF func(c int) // every cell of the mesh (the patch, when decomposed)
}

// cell runs one column: v = Σ w_e·u_e, ke = ½|v|², div = (Σ s·Dv·re·u) over
// the cell area. The cell's slots are walked once per pair of levels with
// one set of accumulators per level; each level's accumulators start at
// zero and add in edge order.
func (a *keDivArgs) cell(c int) {
	g := a.g
	nlev := g.nlev
	lo, hi := g.mesh.Slots(c)
	edges := g.mesh.SlotEdge[lo:hi]
	wX, wY, wZ, sdv := g.wX[lo:hi], g.wY[lo:hi], g.wZ[lo:hi], g.sdv[lo:hi]
	wX, wY, wZ, sdv = wX[:len(edges)], wY[:len(edges)], wZ[:len(edges)], sdv[:len(edges)]
	rArea := g.areaRR[c]
	out := a.cd[c*nlev*cdW : (c+1)*nlev*cdW]
	u := a.u
	half := 0.5
	k := 0
	for ; k+2 <= nlev; k += 2 {
		var vx0, vy0, vz0, d0, vx1, vy1, vz1, d1 float64
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
		*(*[cdW]float64)(out[k*cdW:]) = [cdW]float64{vx0, vy0, vz0, half * (vx0*vx0 + vy0*vy0 + vz0*vz0), d0 * rArea}
		*(*[cdW]float64)(out[(k+1)*cdW:]) = [cdW]float64{vx1, vy1, vz1, half * (vx1*vx1 + vy1*vy1 + vz1*vz1), d1 * rArea}
	}
	if k < nlev {
		var vx, vy, vz, d float64
		for j, e := range edges {
			uE := u[int(e)*nlev+k]
			vx += wX[j] * uE
			vy += wY[j] * uE
			vz += wZ[j] * uE
			d += sdv[j] * uE
		}
		*(*[cdW]float64)(out[k*cdW:]) = [cdW]float64{vx, vy, vz, half * (vx*vx + vy*vy + vz*vz), d * rArea}
	}
}

func keDivKernel(s pp.Space, args any) {
	a, ok := args.(*keDivArgs)
	if !ok {
		panic("atmos: atm.kediv launched with wrong argument bundle")
	}
	s.ParallelFor(a.g.nc, a.rowF)
}

// --- vertex vorticity ---

type vortArgs struct {
	g    *atmGeom
	u    []float64 // [ne*nlev], edge-major
	vort []float64 // [nv*nlev] (out), vertex-major

	rowF func(v int) // every vertex of the mesh (the patch, when decomposed)
}

// vertex accumulates the circulation over the vertex's three edges in +=
// order (the leading 0 + t₀ matters for the sign of zero), the three edge
// indices and sign·Dc·re loaded once for the whole column.
func (a *vortArgs) vertex(v int) {
	g := a.g
	nlev := g.nlev
	ve := &g.mesh.EdgesOnVertex[v]
	e0, e1, e2 := int(ve[0]), int(ve[1]), int(ve[2])
	s0, s1, s2 := g.sdc[3*v], g.sdc[3*v+1], g.sdc[3*v+2]
	rDual := g.dualRR[v]
	out := a.vort[v*nlev : (v+1)*nlev]
	u0 := a.u[e0*nlev : (e0+1)*nlev][:len(out)]
	u1 := a.u[e1*nlev : (e1+1)*nlev][:len(out)]
	u2 := a.u[e2*nlev : (e2+1)*nlev][:len(out)]
	for k := range out {
		var circ float64
		circ += s0 * u0[k]
		circ += s1 * u1[k]
		circ += s2 * u2[k]
		out[k] = circ * rDual
	}
}

func vortKernel(s pp.Space, args any) {
	a, ok := args.(*vortArgs)
	if !ok {
		panic("atmos: atm.vort launched with wrong argument bundle")
	}
	s.ParallelFor(a.g.nv, a.rowF)
}

// --- edge momentum update ---

// momentumArgs carries the momentum kernel's inputs: the dynamic fields
// produced by the diagnostics kernels plus the thermodynamic state (th,
// lnPs) the driver computes, with the step parameters explicit in the edge
// geometry.
type momentumArgs struct {
	g  *atmGeom
	eg *edgeGeomF

	u    []float64 // [ne*nlev], edge-major, advanced in place
	cd   []float64 // [nc*nlev*cdW] from atm.kediv
	vort []float64 // [nv*nlev] from atm.vort
	th   []thermo  // [nc*nlev]
	lnPs []float64 // per-cell ln(ps), hoisted out of the edge loop

	edges []int // iteration set; nil sweeps every edge
	rowF  func(i int)
}

func (a *momentumArgs) n() int {
	if a.edges != nil {
		return len(a.edges)
	}
	return a.g.ne
}

// edge is one edge's momentum update over the column: Coriolis on the
// tangential wind, the KE+geopotential and surface-pressure gradients (one
// sum, one 1/(Dc·re)), divergence damping, vector Laplacian viscosity. The
// endpoint and vertex columns are sliced once; the level loop never divides.
// Each of the three gradient terms is rounded on its own (the float64
// conversions) before it joins du, so no compiler may fuse it into du's sum.
// The update advances the edge's column of U in place (the dyScratch
// comment says why that is exact).
func (a *momentumArgs) edge(i int) {
	e := at(a.edges, i)
	g := a.g
	nlev := g.nlev
	ce, ve := &g.mesh.CellsOnEdge[e], &g.mesh.VerticesOnEdge[e]
	c1, c2 := int(ce[0]), int(ce[1])
	v1, v2 := int(ve[0]), int(ve[1])
	eg := a.eg
	rdcm, rdvm := eg.rdcm[e], eg.rdvm[e]
	f, damp, kh := eg.fE[e], eg.damp[e], eg.kh
	psd := a.lnPs[c2] - a.lnPs[c1]
	tx, ty, tz := g.tX[e], g.tY[e], g.tZ[e]
	dt := eg.dt
	// Re-slicing every column to the common length lets the compiler drop
	// the per-level bounds checks; a level's cell diagnostics are taken as
	// one [cdW]float64, one check each.
	th1 := a.th[c1*nlev : (c1+1)*nlev]
	th2 := a.th[c2*nlev : (c2+1)*nlev][:len(th1)]
	w1 := a.vort[v1*nlev : (v1+1)*nlev][:len(th1)]
	w2 := a.vort[v2*nlev : (v2+1)*nlev][:len(th1)]
	u := a.u[e*nlev : (e+1)*nlev][:len(th1)]
	cd1 := a.cd[c1*nlev*cdW : (c1+1)*nlev*cdW]
	cd2 := a.cd[c2*nlev*cdW : (c2+1)*nlev*cdW]
	for k := range th1 {
		p1, p2 := (*[cdW]float64)(cd1[k*cdW:]), (*[cdW]float64)(cd2[k*cdW:])
		t1, t2 := &th1[k], &th2[k]
		// Tangential wind: the two stored cell vectors summed, on the half tangent.
		ut := (p1[cdVx]+p2[cdVx])*tx + (p1[cdVy]+p2[cdVy])*ty + (p1[cdVz]+p2[cdVz])*tz
		eta := f + 0.5*(w1[k]+w2[k])
		du := eta * ut
		tvb := 0.5 * (t1.tv + t2.tv)
		du -= float64((p2[cdKe] - p1[cdKe] + t2.phi - t1.phi + Rd*tvb*psd) * rdcm)
		dd := p2[cdDiv] - p1[cdDiv]
		du += float64(damp * dd)
		lap := dd*rdcm - (w2[k]-w1[k])*rdvm
		du += float64(kh * lap)
		u[k] += dt * du
	}
}

func atmMomentumKernel(s pp.Space, args any) {
	a, ok := args.(*momentumArgs)
	if !ok {
		panic("atmos: atm.momentum launched with wrong argument bundle")
	}
	s.ParallelFor(a.n(), a.rowF)
}

// --- driver scratch ---

// dyScratch is the persistent per-model dycore state: the arrays the
// original dynamicsSubstep allocated per call, the geometry tables, the
// pre-bound kernel argument bundles, and the row bodies of dycore.go bound
// once as method values (so a substep allocates no closure).
//
// atm.momentum advances U in place, so the dycore holds no second velocity
// array: an edge's update reads U only in its own column, and its other
// inputs (cd, vort, th, lnPs) are complete before the launch. Decomposed,
// every patch edge is either computed or received by the exchange that ends
// the substep, so no stale edge survives it.
//
// Every scratch array but th is dead between substeps — each is rebuilt
// before the next substep reads it — so the work that runs only there
// borrows it instead of holding arrays of its own:
//
//   - continuity parks its edge totals in cd[:ne], between contEdge and
//     contCell, before atm.kediv fills cd;
//   - the tracer step takes θ, transported θ and transported qv from
//     cd[:3·nlev·nc], and lnPs for the window's old ps;
//   - the physics step takes lnPs and vort[:nc] for the cell momentum
//     tendencies.
//
// cd holds cdW·nlev·nc ≥ 10·nc values (nlev ≥ 2), more than the edges of
// any patch (at most 6 per cell) or the tracer's three fields. vort is held
// at max(nv, nc) columns for the patches of one or two owned cells, which
// have fewer vertices than cells. th is never borrowed: it carries tv/φ
// from one substep to the next until T or qv changes (Model.thFresh).
type dyScratch struct {
	m   *Model
	geo *atmGeom
	eg  *edgeGeomF

	// Level constants of the hydrostatic integral: ln(σ_bot/σ_k) from the
	// interface below level k up to its mid-point, and ln(σ_bot/σ_top) across
	// the layer; and the Exner function's level factor σ_k^κ with its reciprocal.
	lnMid, lnLayer []float64
	sigK, rsigK    []float64

	th   []thermo  // [nc*nlev] thermodynamic diagnostics
	lnPs []float64 // [nc]
	cd   []float64 // [nc*nlev*cdW] cell diagnostics
	vort []float64 // [max(nv, nc)*nlev]

	bKeDiv *keDivArgs
	bVort  *vortArgs
	bMom   *momentumArgs

	// The iteration sets that are not the whole mesh (see sweep): owned
	// cells and computed edges, refreshed from the model's decomposition at
	// the top of each step; nil when replicated.
	owned, comp []int

	// The row bodies of dycore.go, bound once, and the physics step's dt.
	thermoF, lnPsF, contEdgeF, contCellF func(i int)
	thetaF, transportF, tracerStoreF     func(i int)
	physColumnF, dragEdgeF               func(i int)
	physDt                               float64
}

// dyEnsure builds the scratch on first use.
func (m *Model) dyEnsure() *dyScratch {
	if m.dy != nil {
		return m.dy
	}
	mesh := m.Mesh
	nc, nv := mesh.NCells(), mesh.NVertices()
	nlev := m.NLev
	geo, eg := newAtmGeomF(mesh, m.recon, nlev)
	s := &dyScratch{
		m:    m,
		geo:  geo,
		eg:   eg,
		th:   make([]thermo, nc*nlev),
		lnPs: make([]float64, nc),
		cd:   make([]float64, nc*nlev*cdW),
		vort: make([]float64, max(nv, nc)*nlev),

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
	s.bKeDiv = &keDivArgs{g: geo, cd: s.cd}
	s.bKeDiv.rowF = s.bKeDiv.cell
	s.bVort = &vortArgs{g: geo, vort: s.vort}
	s.bVort.rowF = s.bVort.vertex
	s.bMom = &momentumArgs{g: geo, eg: eg, cd: s.cd, vort: s.vort, th: s.th, lnPs: s.lnPs}
	s.bMom.rowF = s.bMom.edge
	s.thermoF, s.lnPsF, s.contEdgeF, s.contCellF = s.thermoCell, s.lnPsCell, s.contEdge, s.contCell
	s.thetaF, s.transportF, s.tracerStoreF = s.thetaCell, s.transport2, s.tracerStore
	s.physColumnF, s.dragEdgeF = s.physColumn, s.dragEdge
	m.dy = s
	return s
}

// ---------------------------------------------------------------------------
// Radiation: the two-stream sweep.
//
// The conventional suite's correlated-k radiation is the one physics loop
// ported into the kernel layer: 1 232 exponentials per sunlit column made it
// 29 % of coupled CPU when it ran on 1 386 columns per ocean-coupling
// interval (EXPERIMENTS.md "Radiation step and hold"); on its own time step it
// runs on 642. Unlike the row kernels above it is a per-column body invoked
// from inside the physics column sweep (already a ParallelFor), so it is a
// plain function rather than a registered launch.
//
// Contract: path, tau, the attenuation and
// emissivity recurrences and the final flux expressions keep the historical
// operand grouping exactly; the per-g-point kAbs tables, the per-level Planck
// emission and the column's exponential arguments are hoisted out of their
// loops, each hoisted entry the identical expression the inner loop
// computed. The exponential itself is pp's table-driven one (≤ 0.51 ulp, the
// same bits on every host), not math.Exp, so GSW/GLW differ from the
// pre-table history in the last places (DESIGN.md "Registered kernels").
// ---------------------------------------------------------------------------

// twoStreamRad attenuates each shortwave g-point's direct beam down the
// column and sweeps each longwave g-point's emissivity recurrence top-down.
// q and tcol are the column's specific humidity and temperature, dsig the
// sigma-layer thicknesses, ps the diagnosed surface pressure, mu0 the
// cosine of the solar zenith angle, swK/lwK the g-point absorption tables.
func twoStreamRad(q, tcol, dsig []float64, ps, mu0, s0 float64, swK, lwK []float64) (gsw, glw float64) {
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
	var stack [2*8 + 112 + 140*8]float64
	work := stack[:]
	if 2*nlev+nexp > len(stack) {
		work = make([]float64, 2*nlev+nexp)
	}
	// Per-layer absorber path: water vapour mass (kg/m²) plus a small dry
	// (well-mixed gas) contribution.
	path := work[:nlev]
	for k := 0; k < nlev; k++ {
		lm := ps * dsig[k] / Gravity
		path[k] = q[k]*lm + 1e-4*lm
	}
	const sb = 5.67e-8
	planck := work[nlev : 2*nlev]
	for k := 0; k < nlev; k++ {
		tk := tcol[k]
		planck[k] = sb * tk * tk * tk * tk
	}

	// Every optical depth first, then one ExpInto over the lot: the
	// exponential's loop runs without the recurrences' dependency chains in
	// its way.
	trans := work[2*nlev : 2*nlev+nexp]
	swT, lwT := trans[:nsw], trans[nsw:]
	mu := mu0
	for g := range swT {
		kAbs := swK[g]
		var tau float64
		for k := 0; k < nlev; k++ {
			tau += kAbs * path[k]
		}
		swT[g] = -tau / mu
	}
	lit := 1.66 // diffusivity factor
	for g := range lwK {
		kAbs := lwK[g]
		col := lwT[g*nlev : (g+1)*nlev]
		for k := range col {
			col[k] = -kAbs * path[k] * lit
		}
	}
	pp.ExpInto(trans, trans)

	// --- Shortwave: direct-beam attenuation per g-point ---
	if nsw > 0 {
		var down float64
		for _, tr := range swT {
			down += tr
		}
		gsw = s0 * mu0 * (down / float64(nsw)) * (1 - 0.15) // 15% Rayleigh/aerosol loss
	}

	// --- Longwave: emissivity sweep per g-point, top down ---
	var glwSum float64
	for g := range lwK {
		var d float64 // downward flux of this g-point (normalized weight 1)
		for k, tr := range lwT[g*nlev : (g+1)*nlev] {
			d = d*tr + planck[k]*(1-tr)
		}
		glwSum += d
	}
	glw = glwSum / float64(len(lwK))
	return gsw, glw
}
