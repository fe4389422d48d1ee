package atmos

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/grid"
	"repro/internal/par"
	"repro/internal/pp"
)

// rowSets runs plain row loops over the model's four iteration sets: the
// listed local indices of the patch when decomposed, [0, n) otherwise (the
// extended cells and computed vertices are the whole patch). Both test-only
// steppers — the oracle below and the drift twin in drift_test.go — sweep
// through it.
type rowSets struct{ m *Model }

func (r rowSets) sweepSet(set func(*grid.IcosDecomp) []int, n int, fn func(i int)) {
	m := r.m
	if m.dec == nil || set == nil {
		m.Sp.ParallelFor(n, fn)
		return
	}
	idx := set(m.dec)
	m.Sp.ParallelFor(len(idx), func(i int) { fn(idx[i]) })
}

func (r rowSets) forExtCells(fn func(c int)) { r.sweepSet(nil, r.m.Mesh.NCells(), fn) }

func (r rowSets) forOwnedCells(fn func(c int)) {
	r.sweepSet(func(d *grid.IcosDecomp) []int { return d.OwnedLocal }, r.m.Mesh.NCells(), fn)
}

func (r rowSets) forCompEdges(fn func(e int)) {
	r.sweepSet(func(d *grid.IcosDecomp) []int { return d.CompEdgesLocal }, r.m.Mesh.NEdges(), fn)
}

func (r rowSets) forCompVerts(fn func(v int)) { r.sweepSet(nil, r.m.Mesh.NVertices(), fn) }

// levelState is a test stepper's private level-major copy of the model's
// column-major 3-D state, so the steppers keep their plain level-major loops
// verbatim: enter transposes T, qv, U and the flux accumulator in at the top
// of a substep or tracer step, exit transposes them back before its halo
// exchanges.
type levelState struct {
	t, qv, u, fluxEdge []float64
}

func newLevelState(m *Model) levelState {
	nc, ne, nlev := m.Mesh.NCells(), m.Mesh.NEdges(), m.NLev
	return levelState{
		t: make([]float64, nlev*nc), qv: make([]float64, nlev*nc),
		u: make([]float64, nlev*ne), fluxEdge: make([]float64, nlev*ne),
	}
}

func (s *levelState) enter(m *Model) {
	nc, ne, nlev := m.Mesh.NCells(), m.Mesh.NEdges(), m.NLev
	toLevelMajor(s.t, m.T, nc, nlev)
	toLevelMajor(s.qv, m.Qv, nc, nlev)
	toLevelMajor(s.u, m.U, ne, nlev)
	toLevelMajor(s.fluxEdge, m.flux.edge, ne, nlev)
}

func (s *levelState) exit(m *Model) {
	nc, ne, nlev := m.Mesh.NCells(), m.Mesh.NEdges(), m.NLev
	toColumnMajor(m.T, s.t, nc, nlev)
	toColumnMajor(m.Qv, s.qv, nc, nlev)
	toColumnMajor(m.U, s.u, ne, nlev)
	toColumnMajor(m.flux.edge, s.fluxEdge, ne, nlev)
}

// toLevelMajor transposes a field of n columns of nlev levels from the
// model's [i·nlev+k] into [k·n+i]; toColumnMajor is its inverse.
func toLevelMajor(dst, src []float64, n, nlev int) {
	for i := 0; i < n; i++ {
		for k := 0; k < nlev; k++ {
			dst[k*n+i] = src[i*nlev+k]
		}
	}
}

func toColumnMajor(dst, src []float64, n, nlev int) {
	for i := 0; i < n; i++ {
		for k := 0; k < nlev; k++ {
			dst[i*nlev+k] = src[k*n+i]
		}
	}
}

// stepModelLoops is Model.StepModel over a test stepper's substep and tracer
// step. The physics step is the model's own: no test stepper replaces it.
func stepModelLoops(m *Model, dynamicsSubstep func(dt float64), tracerStep func()) {
	for i := 0; i < m.Cfg.PhysicsEvery; i++ {
		dt := m.Cfg.DtDycore
		dynamicsSubstep(dt)
		m.steps++
		if m.steps%m.Cfg.TracerEvery == 0 {
			tracerStep()
		}
		if m.steps%m.Cfg.PhysicsEvery == 0 {
			m.physicsStep(dt * float64(m.Cfg.PhysicsEvery))
		}
	}
}

// refStepper advances a Model with plain loops — level-major state and
// scratch, one (row, level) body per call, the mesh's own slot tables, one
// transport sweep per tracer, tv/φ integrated on every substep — in the
// operand grouping of the live dycore (DESIGN.md "Operand grouping,
// re-baselined at PR 24"), the oracle TestStepMatchesReferenceLoops steps the
// live code against. Every metric factor is derived here from the IcosMesh,
// and every level constant from the sigma levels: nothing is read from the
// live model's dyScratch, so a wrong table there is wrong on one side only.
// Nothing outside this file may call it.
type refStepper struct {
	rowSets
	levelState

	// Per cell and per vertex: reciprocal areas in m⁻².
	rArea, rDual []float64
	// Per edge: Dv·re, the reciprocal metric lengths, Div4·(Dc·re)/dt, the
	// Coriolis parameter and half the tangent vector.
	dvm, rdcm, rdvm, damp, fE []float64
	halfT                     []grid.Vec3
	// Per level: the hydrostatic integral's logarithms and the Exner
	// function's level factor with its reciprocal.
	lnMid, lnLayer, sigK, rsigK []float64

	tv, phi, lnPs []float64
	vcx, vcy, vcz []float64
	ke, div, vort []float64
	newU, total   []float64
	newTheta      []float64
	newQv         []float64
}

func newRefStepper(m *Model) *refStepper {
	mesh := m.Mesh
	nc, ne, nv := mesh.NCells(), mesh.NEdges(), mesh.NVertices()
	nlev := m.NLev
	n := nlev * nc
	re := grid.EarthRadius
	f := func(n int) []float64 { return make([]float64, n) }
	r := &refStepper{
		rowSets:    rowSets{m},
		levelState: newLevelState(m),
		rArea:      f(nc), rDual: f(nv),
		dvm: f(ne), rdcm: f(ne), rdvm: f(ne), damp: f(ne), fE: f(ne),
		halfT: make([]grid.Vec3, ne),
		lnMid: f(nlev), lnLayer: f(nlev), sigK: f(nlev), rsigK: f(nlev),
		tv: f(n), phi: f(n), lnPs: f(nc),
		vcx: f(n), vcy: f(n), vcz: f(n), ke: f(n), div: f(n),
		vort: f(nlev * nv), newU: f(nlev * ne), total: f(ne),
		newTheta: f(n), newQv: f(n),
	}
	for c := range r.rArea {
		r.rArea[c] = 1 / (mesh.AreaCell[c] * re * re)
	}
	for v := range r.rDual {
		r.rDual[v] = 1 / (mesh.AreaDual[v] * re * re)
	}
	for e := 0; e < ne; e++ {
		r.dvm[e] = mesh.Dv[e] * re
		r.rdcm[e] = 1 / (mesh.Dc[e] * re)
		r.rdvm[e] = 1 / (mesh.Dv[e] * re)
		if ce := mesh.CellsOnEdge[e]; ce[0] < 0 || ce[1] < 0 {
			// A patch edge without its outer cell has no midpoint here, and
			// no sweep reads its Coriolis or tangent: it has no owned cell,
			// so it is received, never computed. Left zero.
			continue
		}
		_, lat := grid.LonLat(mesh.EdgeMidpoint(e))
		r.fE[e] = 2 * 7.292e-5 * math.Sin(lat)
		r.halfT[e] = mesh.EdgeMidpoint(e).Cross(m.recon.normal3[e]).Scale(0.5)
	}
	for k := 0; k < nlev; k++ {
		sTop, sBot := m.sigInt(k), m.sigInt(k+1)
		r.lnMid[k] = math.Log(sBot / m.Sig[k])
		r.lnLayer[k] = math.Log(sBot / sTop)
		r.sigK[k] = math.Pow(m.Sig[k], Kappa)
		r.rsigK[k] = 1 / r.sigK[k]
	}
	return r
}

func (r *refStepper) stepModel() { stepModelLoops(r.m, r.dynamicsSubstep, r.tracerStep) }

func (r *refStepper) dynamicsSubstep(dt float64) {
	m := r.m
	mesh := m.Mesh
	nc, ne := mesh.NCells(), mesh.NEdges()
	nlev := m.NLev

	if m.flux == nil {
		m.flux = &accFlux{
			edge: make([]float64, nlev*ne),
			dps:  make([]float64, nc),
		}
	}
	for e, rdcm := range r.rdcm {
		r.damp[e] = m.Cfg.Div4 / (rdcm * dt)
	}
	r.enter(m)

	tv, phi, lnPs := r.tv, r.phi, r.lnPs
	r.forExtCells(func(c int) {
		below := 0.0 // geopotential at the interface below the current layer
		for k := nlev - 1; k >= 0; k-- {
			i := k*nc + c
			tv[i] = r.t[i] * (1 + 0.608*r.qv[i])
			phi[i] = below + Rd*tv[i]*r.lnMid[k]
			below += Rd * tv[i] * r.lnLayer[k]
		}
		lnPs[c] = math.Log(m.Ps[c])
	})

	for i := range r.newU {
		r.newU[i] = 0
	}
	r.forExtCells(func(c int) {
		for k := 0; k < nlev; k++ {
			r.keDivLevel(c, k)
		}
	})
	r.forCompVerts(func(v int) {
		for k := 0; k < nlev; k++ {
			r.vortLevel(v, k)
		}
	})
	r.forCompEdges(func(e int) {
		for k := 0; k < nlev; k++ {
			r.momentumLevel(e, k, dt)
		}
	})

	// --- Continuity: per-level mass fluxes, one column total per edge, and
	// the surface pressure from the signed totals ---
	dtG := dt / Gravity
	r.forCompEdges(func(e int) {
		c1, c2 := int(mesh.CellsOnEdge[e][0]), int(mesh.CellsOnEdge[e][1])
		var total float64
		for k := 0; k < nlev; k++ {
			u := r.u[k*ne+e]
			// Upwind surface pressure.
			psUp := m.Ps[c2]
			if u >= 0 {
				psUp = m.Ps[c1]
			}
			term := u * psUp * m.DSig[k] * r.dvm[e]
			total += term
			// kg through the edge (positive c1→c2) over the substep.
			r.fluxEdge[k*ne+e] += dtG * term
		}
		r.total[e] = total
	})
	r.forOwnedCells(func(c int) {
		var sum float64
		for j, e := range mesh.EdgesOnCell(c) {
			sum += float64(edgeSigns(mesh, c)[j]) * r.total[e]
		}
		d := dt * (-sum * r.rArea[c])
		m.Ps[c] += d
		m.flux.dps[c] += d
	})
	r.u, r.newU = r.newU, r.u
	r.exit(m)
	if m.dec != nil {
		m.dec.ExchangeCells(m.Ps, 1)
		m.dec.ExchangeEdges(m.U, nlev)
	}
}

// keDivLevel runs one (cell, level): v = Σ w_e·u_e, ke = ½|v|², div =
// (Σ s·Dv·re·u) times the reciprocal cell area.
func (r *refStepper) keDivLevel(c, k int) {
	m := r.m
	mesh := m.Mesh
	nc, ne := mesh.NCells(), mesh.NEdges()
	re := grid.EarthRadius
	var vx, vy, vz, d float64
	lo, hi := mesh.Slots(c)
	for s := lo; s < hi; s++ {
		e := int(mesh.SlotEdge[s])
		uE := r.u[k*ne+e]
		w := m.recon.weight(s)
		vx += w.X * uE
		vy += w.Y * uE
		vz += w.Z * uE
		d += float64(mesh.SlotSign[s]) * mesh.Dv[e] * re * uE
	}
	ic := k*nc + c
	r.vcx[ic], r.vcy[ic], r.vcz[ic] = vx, vy, vz
	r.ke[ic] = 0.5 * (vx*vx + vy*vy + vz*vz)
	r.div[ic] = d * r.rArea[c]
}

func (r *refStepper) vortLevel(v, k int) {
	mesh := r.m.Mesh
	ne, nv := mesh.NEdges(), mesh.NVertices()
	re := grid.EarthRadius
	var circ float64
	for j, e := range mesh.EdgesOnVertex[v] {
		circ += float64(mesh.EdgeSignOnVtx[v][j]) * mesh.Dc[e] * re * r.u[k*ne+int(e)]
	}
	r.vort[k*nv+v] = circ * r.rDual[v]
}

// momentumLevel is one (edge, level) momentum update: Coriolis on the
// tangential wind, the KE+geopotential and surface-pressure gradients under
// one reciprocal length, divergence damping, vector Laplacian viscosity.
func (r *refStepper) momentumLevel(e, k int, dt float64) {
	m := r.m
	mesh := m.Mesh
	nc, ne, nv := mesh.NCells(), mesh.NEdges(), mesh.NVertices()
	c1, c2 := int(mesh.CellsOnEdge[e][0]), int(mesh.CellsOnEdge[e][1])
	v1, v2 := int(mesh.VerticesOnEdge[e][0]), int(mesh.VerticesOnEdge[e][1])
	ic1, ic2 := k*nc+c1, k*nc+c2
	iv1, iv2 := k*nv+v1, k*nv+v2
	t := r.halfT[e]
	rdcm, rdvm := r.rdcm[e], r.rdvm[e]
	psd := r.lnPs[c2] - r.lnPs[c1]

	ut := (r.vcx[ic1]+r.vcx[ic2])*t.X + (r.vcy[ic1]+r.vcy[ic2])*t.Y + (r.vcz[ic1]+r.vcz[ic2])*t.Z
	eta := r.fE[e] + 0.5*(r.vort[iv1]+r.vort[iv2])
	du := eta * ut
	tvb := 0.5 * (r.tv[ic1] + r.tv[ic2])
	du -= (r.ke[ic2] - r.ke[ic1] + r.phi[ic2] - r.phi[ic1] + Rd*tvb*psd) * rdcm
	dd := r.div[ic2] - r.div[ic1]
	du += r.damp[e] * dd
	lap := dd*rdcm - (r.vort[iv2]-r.vort[iv1])*rdvm
	du += m.Cfg.KhMomentum * lap
	i := k*ne + e
	r.newU[i] = r.u[i] + dt*du
}

func (r *refStepper) tracerStep() {
	m := r.m
	nc := m.Mesh.NCells()
	nlev := m.NLev

	if m.dec != nil {
		m.dec.ExchangeCells(m.flux.dps, 1)
	}
	r.enter(m)
	psOld := r.lnPs
	for c := 0; c < nc; c++ {
		psOld[c] = m.Ps[c] - m.flux.dps[c]
	}

	// θ = T·σ_k^−κ·(ps/P0)^−κ, the column factor taken once per column.
	theta := r.tv
	r.forExtCells(func(c int) {
		rExner := pp.Exp(-Kappa * math.Log(psOld[c]/P0))
		for k := 0; k < nlev; k++ {
			i := k*nc + c
			theta[i] = r.t[i] * (r.rsigK[k] * rExner)
		}
	})

	newTheta, newQv := r.newTheta, r.newQv
	r.transport(theta, psOld, newTheta)
	r.transport(r.qv, psOld, newQv)

	r.forOwnedCells(func(c int) {
		exner := pp.Exp(Kappa * math.Log(m.Ps[c]/P0))
		for k := 0; k < nlev; k++ {
			i := k*nc + c
			r.t[i] = newTheta[i] * (r.sigK[k] * exner)
			r.qv[i] = math.Max(newQv[i], 0)
		}
	})
	r.exit(m)
	if m.dec != nil {
		m.dec.ExchangeCells(m.T, nlev)
		m.dec.ExchangeCells(m.Qv, nlev)
	}

	for i := range m.flux.edge {
		m.flux.edge[i] = 0
	}
	for i := range m.flux.dps {
		m.flux.dps[i] = 0
	}
}

// transport advances one tracer with the accumulated horizontal mass fluxes
// plus the implied vertical redistribution, conserving Σ M·X.
func (r *refStepper) transport(x, psOld, out []float64) {
	m := r.m
	mesh := m.Mesh
	nc, ne := mesh.NCells(), mesh.NEdges()
	nlev := m.NLev
	re := grid.EarthRadius

	r.forOwnedCells(func(c int) {
		areaG := mesh.AreaCell[c] * re * re / Gravity
		// Horizontal: per-level content change (kg·X).
		dContent := make([]float64, nlev)
		hdiv := make([]float64, nlev) // accumulated mass divergence per level (kg)
		for k := 0; k < nlev; k++ {
			for j, e := range mesh.EdgesOnCell(c) {
				sign := float64(edgeSigns(mesh, c)[j])
				fm := sign * r.fluxEdge[k*ne+int(e)] // kg leaving through e if > 0
				var xUp float64
				if fm >= 0 {
					xUp = x[k*nc+c]
				} else {
					xUp = x[k*nc+int(mesh.CellsOnCell(c)[j])]
				}
				dContent[k] -= fm * xUp
				hdiv[k] -= fm
			}
		}
		dpsA := (m.Ps[c] - psOld[c]) * areaG
		w := 0.0 // flux through the top of the current layer
		for k := 0; k < nlev; k++ {
			wBot := hdiv[k] + w - m.DSig[k]*dpsA
			if k == nlev-1 {
				wBot = 0 // closed lower boundary (telescopes exactly)
			}
			// Upwind interface values.
			if w > 0 { // mass entering from above
				if k > 0 {
					dContent[k] += w * x[(k-1)*nc+c]
				}
			} else if k > 0 {
				dContent[k] += w * x[k*nc+c]
			}
			if wBot > 0 { // mass leaving downward
				dContent[k] -= wBot * x[k*nc+c]
			} else if k < nlev-1 {
				dContent[k] -= wBot * x[(k+1)*nc+c]
			}
			layer := m.DSig[k] * areaG
			oldMass := psOld[c] * layer
			out[k*nc+c] = (x[k*nc+c]*oldMass + dContent[k]) * (1 / (m.Ps[c] * layer))
			w = wBot
		}
	})
}

// perturb draws a rough but stable state from the seed: ps, T and qv jittered
// around the resting initial condition, a random wind of a few m/s, and one
// edge in eight pinned to exactly +0 or −0 on every level (the case where the
// upwind choice rests on the sign of zero). Seed 0 leaves the model at rest:
// every edge exactly +0.
func perturb(m *Model, seed int64) {
	if seed == 0 {
		return
	}
	rng := rand.New(rand.NewSource(seed))
	ne := m.Mesh.NEdges()
	for c := range m.Ps {
		m.Ps[c] *= 1 + 0.02*(2*rng.Float64()-1)
	}
	for i := range m.T {
		m.T[i] += 3 * (2*rng.Float64() - 1)
		m.Qv[i] *= 1 + 0.3*(2*rng.Float64()-1)
	}
	for i := range m.U {
		m.U[i] = 8 * (2*rng.Float64() - 1)
	}
	for e := 0; e < ne; e++ {
		if rng.Intn(8) != 0 {
			continue
		}
		zero := math.Copysign(0, float64(rng.Intn(2))-0.5)
		for k := 0; k < m.NLev; k++ {
			m.U[m.Idx(e, k)] = zero
		}
	}
}

// modelPair builds two identical default-configuration models, perturbed
// from the same seed: one for the live dycore, one for a test stepper.
func modelPair(level, nlev int, sp pp.Space, seed int64) (a, b *Model, err error) {
	var ms [2]*Model
	for i := range ms {
		if ms[i], err = New(level, nlev, DefaultConfig(), sp); err != nil {
			return nil, nil, err
		}
		perturb(ms[i], seed)
	}
	return ms[0], ms[1], nil
}

// sameBits reports the first value where got and want differ in any bit:
// everywhere when idx is nil, else in the listed columns of fields holding
// nlev values per column.
func sameBits(t *testing.T, what string, got, want []float64, idx []int, nlev int) {
	t.Helper()
	if len(got) != len(want) {
		t.Errorf("%s: %d values, want %d", what, len(got), len(want))
		return
	}
	check := func(i int) bool {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Errorf("%s[%d] = %v (%#x), reference loops give %v (%#x)",
				what, i, got[i], math.Float64bits(got[i]), want[i], math.Float64bits(want[i]))
			return false
		}
		return true
	}
	if idx == nil {
		for i := range got {
			if !check(i) {
				return
			}
		}
		return
	}
	for _, j := range idx {
		for k := 0; k < nlev; k++ {
			if !check(j*nlev + k) {
				return
			}
		}
	}
}

// TestStepMatchesReferenceLoops is the bit-for-bit contract of the dycore's
// restructuring: from seeded random states, one full model step (15
// substeps, three tracer steps, one physics step) through the live dycore —
// column-major state, tv/φ carried between substeps — and through the
// reference loops above — level-major copies, tv/φ integrated every substep
// — must leave identical bits in every prognostic and in the flux
// accumulators, on the global sets under Serial and Host, and decomposed
// over 2, 3 and 4 ranks. Odd level counts exercise the tail of the pairwise
// cell-diagnostics walk.
func TestStepMatchesReferenceLoops(t *testing.T) {
	const level = 2
	// compare checks the state on the given cell/edge sets (nil: everywhere).
	compare := func(t *testing.T, live, ref *Model, cells, edges, fluxEdges []int) {
		t.Helper()
		nlev := live.NLev
		sameBits(t, "Ps", live.Ps, ref.Ps, cells, 1)
		sameBits(t, "T", live.T, ref.T, cells, nlev)
		sameBits(t, "Qv", live.Qv, ref.Qv, cells, nlev)
		sameBits(t, "U", live.U, ref.U, edges, nlev)
		sameBits(t, "flux.edge", live.flux.edge, ref.flux.edge, fluxEdges, nlev)
		sameBits(t, "flux.dps", live.flux.dps, ref.flux.dps, cells, 1)
	}

	for _, sp := range []pp.Space{pp.Serial{}, pp.NewHost(4)} {
		for _, nlev := range []int{7, 8} {
			for seed := int64(0); seed < 4; seed++ {
				t.Run(fmt.Sprintf("%s/nlev%d/seed%d", sp.Name(), nlev, seed), func(t *testing.T) {
					live, ref, err := modelPair(level, nlev, sp, seed)
					if err != nil {
						t.Fatal(err)
					}
					live.StepModel()
					newRefStepper(ref).stepModel()
					compare(t, live, ref, nil, nil, nil)
				})
			}
		}
	}

	for _, ranks := range []int{2, 3, 4} {
		for _, nlev := range []int{6, 7} {
			for seed := int64(0); seed < 3; seed++ {
				t.Run(fmt.Sprintf("ranks%d/nlev%d/seed%d", ranks, nlev, seed), func(t *testing.T) {
					par.Run(ranks, func(c *par.Comm) {
						wholeLive, wholeRef, err := modelPair(level, nlev, nil, seed)
						if err != nil { // unreachable, and may not t.Fatal from a rank goroutine
							t.Error(err)
							return
						}
						live, err := patchOf(wholeLive, c)
						if err != nil {
							t.Error(err)
							return
						}
						ref, err := patchOf(wholeRef, c)
						if err != nil {
							t.Error(err)
							return
						}
						live.StepModel()
						newRefStepper(ref).stepModel()
						// Both models hold the same patch: compare in its local ids.
						d := live.Decomp()
						ownEdges := d.OwnEdges()
						for i, e := range ownEdges {
							ownEdges[i] = d.LocalEdge(e)
						}
						compare(t, live, ref, d.OwnedLocal, ownEdges, d.CompEdgesLocal)
					})
				})
			}
		}
	}
}
