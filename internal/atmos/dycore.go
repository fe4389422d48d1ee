package atmos

import (
	"fmt"
	"math"

	"repro/internal/pp"
	"repro/internal/precision"
)

// The dynamical core integrates the hydrostatic primitive equations in
// sigma coordinates on the icosahedral C-grid:
//
//   - normal velocity at edges, vector-invariant form: absolute-vorticity
//     Coriolis term, kinetic-energy + geopotential gradient, surface-
//     pressure gradient, divergence damping, vector Laplacian viscosity;
//   - surface pressure by flux-form column mass continuity (exactly
//     conservative);
//   - potential temperature and specific humidity by mass-weighted upwind
//     flux-form transport on the slower tracer step, using the mass fluxes
//     accumulated over the intervening dycore substeps (so tracer mass is
//     exactly consistent with the pressure field);
//   - a pluggable physics suite on the slowest step.
//
// Step runs one dycore substep and fires the tracer and physics steps at
// the configured multiples — GRIST's 8 s / 30 s / 120 s hierarchy.

// Step advances the model by one dycore substep. Callers may have written
// the exported fields since the last call, so the substep retakes the
// hydrostatic integral.
func (m *Model) Step() {
	m.thFresh = false
	m.step()
}

// StepModel advances one full model step (PhysicsEvery dycore substeps),
// the unit the coupler drives.
func (m *Model) StepModel() {
	m.thFresh = false
	for i := 0; i < m.Cfg.PhysicsEvery; i++ {
		m.step()
	}
}

// step is one dycore substep plus the tracer and physics steps it fires;
// each of those two changes T and qv, so the next substep retakes tv/φ.
func (m *Model) step() {
	dt := m.Cfg.DtDycore
	m.dynamicsSubstep(dt)
	m.steps++
	if m.steps%m.Cfg.TracerEvery == 0 {
		m.tracerStep()
		m.thFresh = false
	}
	if m.steps%m.Cfg.PhysicsEvery == 0 {
		m.thFresh = false
		m.physicsStep(dt * float64(m.Cfg.PhysicsEvery))
		if m.Cfg.Policy == precision.Mixed {
			for _, f := range [][]float64{m.U, m.T, m.Qv, m.Ps} {
				if err := precision.QuantizeInPlace(f, m.Cfg.PrecGroup); err != nil {
					// Unreachable: the only error is a non-positive group, which
					// New rejects for a Mixed-policy model.
					panic(err)
				}
			}
			if m.dec != nil {
				// Group-scaled quantization is sensitive to the whole group's
				// contents, so stale regions can requantize owned values
				// differently per rank; re-exchanging the prognostics keeps
				// every halo bit-identical to its owner (self-consistent,
				// though Mixed runs are not rank-count-invariant).
				m.dec.ExchangeEdges(m.U, m.NLev)
				m.dec.ExchangeCells(m.T, m.NLev)
				m.dec.ExchangeCells(m.Qv, m.NLev)
				m.dec.ExchangeCells(m.Ps, 1)
			}
		}
	}
}

// DtModel returns the model (physics) step length in seconds.
func (m *Model) DtModel() float64 {
	return m.Cfg.DtDycore * float64(m.Cfg.PhysicsEvery)
}

// accFlux accumulates time-integrated per-level edge mass fluxes between
// tracer steps (kg/s · s = kg), and the per-level cell mass divergence
// integrals for the vertical redistribution.
type accFlux struct {
	edge []float64 // [nEdges*nlev] ∫ F_e dt, column-major like U
	dps  []float64 // [nCells] ∫ dps/dt dt (pressure change since last tracer step)
}

// FluxAccumulators exposes the tracer-window mass-flux accumulators for
// restart files. Both are nil before the first dycore substep.
func (m *Model) FluxAccumulators() (edge, dps []float64) {
	if m.flux == nil {
		return nil, nil
	}
	return m.flux.edge, m.flux.dps
}

// RestoreState reinstates the substep counter and flux accumulators from a
// restart file, so a restarted run fires its tracer and physics steps on
// exactly the original schedule. The accumulator lengths come straight from
// the file; a mismatch is reported and leaves the model untouched.
func (m *Model) RestoreState(steps int, edge, dps []float64) error {
	if edge != nil || dps != nil {
		ne, nc := m.Mesh.NEdges(), m.Mesh.NCells()
		if len(edge) != m.NLev*ne || len(dps) != nc {
			return fmt.Errorf("atmos: restart flux accumulators have %d edge and %d cell values, want %d and %d",
				len(edge), len(dps), m.NLev*ne, nc)
		}
		m.flux = &accFlux{
			edge: append([]float64(nil), edge...),
			dps:  append([]float64(nil), dps...),
		}
	}
	m.steps = steps
	return nil
}

// Every mesh sweep runs over one of four iteration sets. Replicated (no
// decomposition) each is the full index range, exactly the original
// ParallelFor, so the 1-rank answer is bit-identical by construction;
// decomposed, each is a set of the patch's local ids, visited through the
// same execution space. Per-row arithmetic is identical either way, which is
// what makes the decomposed answer rank-count-invariant bit-for-bit.
//
//   - extended cells: owned plus the ring-1 halo — every cell of the patch.
//     Cell diagnostics (tv, phi, ke, div, θ) and physics columns run here so
//     that edge and ownership stencils never read a stale cell.
//   - owned cells: prognostic writebacks (Ps, T, Qv) whose halo copies
//     arrive by exchange (IcosDecomp.OwnedLocal).
//   - computed edges: every edge with at least one owned endpoint. Adjacent
//     ranks compute the shared boundary edges redundantly from identical
//     inputs, so no edge-tendency exchange is needed
//     (IcosDecomp.CompEdgesLocal).
//   - computed vertices: the vertices of the computed edges — every vertex
//     of the patch; their three-cell and three-edge stencils stay inside the
//     extended sets.
//
// sweep launches a row body over such a set: the listed indices when set is
// non-nil, the full range [0, n) when it is nil. The body resolves its row
// with at(set, i).
func (m *Model) sweep(set []int, n int, body func(i int)) {
	if set != nil {
		n = len(set)
	}
	m.Sp.ParallelFor(n, body)
}

func at(set []int, i int) int {
	if set != nil {
		return set[i]
	}
	return i
}

// bindSets takes the two iteration sets that are not the whole patch from
// the model's decomposition (both nil when replicated).
func (s *dyScratch) bindSets() {
	s.owned, s.comp = nil, nil
	if d := s.m.dec; d != nil {
		s.owned, s.comp = d.OwnedLocal, d.CompEdgesLocal
	}
}

// dynamicsSubstep is the thin driver over the registered kernels in
// kernels.go: it refreshes the thermodynamic diagnostics, advances the
// continuity equation (exactly conservative) from the pre-update velocity,
// and launches the cell/vertex/edge kernels. reference_test.go pins it
// bit-for-bit against plain loops in the same operand grouping.
func (m *Model) dynamicsSubstep(dt float64) {
	mesh := m.Mesh
	nc, ne := mesh.NCells(), mesh.NEdges()
	nlev := m.NLev

	if m.flux == nil {
		m.flux = &accFlux{
			edge: make([]float64, nlev*ne),
			dps:  make([]float64, nc),
		}
	}
	s := m.dyEnsure()
	s.eg.bindStep(dt, m.Cfg.Div4, m.Cfg.KhMomentum)
	s.bindSets()

	// --- Diagnostics needed by the momentum equation: tv, phi, ln(ps) ---
	// tv and φ depend on T and qv only (the σ logarithms are constants), so
	// the integral is retaken only when those may have changed: after a
	// tracer or physics step, and on entry through Step or StepModel, since
	// callers write the exported fields between calls. ln(ps) changes every
	// substep.
	if m.thFresh {
		m.sweep(nil, nc, s.lnPsF)
	} else {
		m.sweep(nil, nc, s.thermoF)
		m.thFresh = true
		m.hydroSweeps++
	}

	// --- Continuity: per-level mass fluxes and surface pressure ---
	// Mass per area of layer k is ps·Δσ_k/g; the flux through an edge uses
	// upwind ps, evaluated with the *pre-update* velocity for consistency
	// with the accumulated tracer fluxes. It runs ahead of the kernels — it
	// reads only the pre-update U and Ps, and ln(ps) is already taken — so
	// the edge pass can park its column totals in cd before atm.kediv fills
	// it. Edge flux accumulation runs over edges (each edge once);
	// decomposed, every edge of an owned cell is a computed edge, so the totals
	// the cell gather sums and the tracer step's accumulators are locally valid.
	m.sweep(s.comp, ne, s.contEdgeF)
	m.sweep(s.owned, nc, s.contCellF)

	// --- Cell diagnostics, vorticity, momentum: registered kernels ---
	// The first two read U and finish before momentum advances it in place.
	s.bKeDiv.u = m.U
	pp.Kernels.MustLaunch(hAtmKeDiv, m.Sp, s.bKeDiv)
	s.bVort.u = m.U
	pp.Kernels.MustLaunch(hAtmVort, m.Sp, s.bVort)
	s.bMom.u, s.bMom.edges = m.U, s.comp
	pp.Kernels.MustLaunch(hAtmMomentum, m.Sp, s.bMom)
	s.bKeDiv.u, s.bVort.u, s.bMom.u = nil, nil, nil
	if m.dec != nil {
		// Halo barrier: refresh Ps on the ring-1 halo and U on the extended
		// edges the neighbours own, so the next substep's stencils read the
		// owners' freshly computed values.
		m.dec.ExchangeCells(m.Ps, 1)
		m.dec.ExchangeEdges(m.U, nlev)
	}
}

// thermoCell fills one column of the virtual temperature and geopotential
// at full levels and takes the cell's ln(ps) (lnPsCell).
func (s *dyScratch) thermoCell(c int) {
	m := s.m
	nlev := s.geo.nlev
	th := s.th[c*nlev : (c+1)*nlev]
	t := m.T[c*nlev : (c+1)*nlev][:len(th)]
	qv := m.Qv[c*nlev : (c+1)*nlev][:len(th)]
	below := 0.0 // geopotential at the interface below the current layer
	for k := nlev - 1; k >= 0; k-- {
		tv := t[k] * (1 + 0.608*qv[k])
		th[k] = thermo{phi: below + Rd*tv*s.lnMid[k], tv: tv}
		below += Rd * tv * s.lnLayer[k]
	}
	s.lnPs[c] = math.Log(m.Ps[c])
}

// lnPsCell takes the cell's ln(ps), hoisted out of the per-edge momentum
// loop: the same math.Log on the same input, so every edge reads identical
// bits.
func (s *dyScratch) lnPsCell(c int) {
	s.lnPs[c] = math.Log(s.m.Ps[c])
}

// contEdge selects one edge's upwind ps once per level and forms the level's
// mass-flux term u·psUp·Δσ·Dv·re (unsigned — positive c1→c2): times dt/g it
// joins the tracer window's accumulated flux, and the terms' column total,
// parked in cd[:ne], is all the two adjacent cells' ps tendencies need.
func (s *dyScratch) contEdge(i int) {
	e := at(s.comp, i)
	m := s.m
	g := s.geo
	nlev := g.nlev
	ce := &g.mesh.CellsOnEdge[e]
	ps1, ps2 := m.Ps[ce[0]], m.Ps[ce[1]]
	dvm, dtG := m.Mesh.Dv[e]*g.re, s.eg.dtG
	dsig := m.DSig[:nlev]
	u := m.U[e*nlev : (e+1)*nlev][:len(dsig)]
	acc := m.flux.edge[e*nlev : (e+1)*nlev][:len(dsig)]
	var total float64
	for k, ds := range dsig {
		uE := u[k]
		psUp := ps2
		if uE >= 0 {
			psUp = ps1
		}
		term := uE * psUp * ds * dvm
		total += term
		acc[k] += dtG * term // kg through the edge over the substep
	}
	s.cd[e] = total
}

// contCell gathers a cell's signed edge totals into its surface-pressure
// tendency and applies it. Both cells of an edge read the same total with
// opposite signs, so what leaves one column enters the other to the bit.
func (s *dyScratch) contCell(i int) {
	c := at(s.owned, i)
	m := s.m
	g := s.geo
	lo, hi := g.mesh.Slots(c)
	edges := g.mesh.SlotEdge[lo:hi]
	sgn := g.mesh.SlotSign[lo:hi][:len(edges)]
	total := s.cd[:g.ne]
	var sum float64
	for j, e := range edges {
		sum += float64(sgn[j]) * total[e]
	}
	d := s.eg.dt * (-sum * g.areaRR[c])
	m.Ps[c] += d
	m.flux.dps[c] += d
}

// sigInt returns the sigma value of interface k (k = 0 is the model top).
func (m *Model) sigInt(k int) float64 {
	const top = 0.05
	return top + (1-top)*float64(k)/float64(m.NLev)
}

// tracerStep transports potential-temperature-carrying T and moisture with
// the accumulated mass fluxes. Transport is formulated on θ = T·(p0/pσ)^κ
// so that adiabatic compression is handled by the coordinate, then mapped
// back to T.
func (m *Model) tracerStep() {
	nc := m.Mesh.NCells()
	nlev := m.NLev

	// Decomposed, the dps accumulator was only summed on owned cells; the
	// halo needs the owners' values before psOld (and through it θ) can be
	// evaluated on the extended patch.
	if m.dec != nil {
		m.dec.ExchangeCells(m.flux.dps, 1)
	}

	// Pre-update masses: ps before this tracer window = Ps - accumulated dps,
	// over the whole patch.
	s := m.dyEnsure()
	s.bindSets()
	psOld := s.lnPs
	for c := 0; c < nc; c++ {
		psOld[c] = m.Ps[c] - m.flux.dps[c]
	}

	// θ on the extended patch, both tracers transported in one sweep, then
	// θ mapped back to T at the new pressure.
	m.sweep(nil, nc, s.thetaF)
	m.sweep(s.owned, nc, s.transportF)
	m.sweep(s.owned, nc, s.tracerStoreF)
	if m.dec != nil {
		m.dec.ExchangeCells(m.T, nlev)
		m.dec.ExchangeCells(m.Qv, nlev)
	}

	// Reset accumulators.
	for i := range m.flux.edge {
		m.flux.edge[i] = 0
	}
	for i := range m.flux.dps {
		m.flux.dps[i] = 0
	}
}

// tracerFields are the tracer step's three column-major whole fields — θ at
// the window's old pressure, transported θ, transported qv — borrowed from
// the cell diagnostics, which are dead between substeps.
func (s *dyScratch) tracerFields() (theta, newTheta, newQv []float64) {
	n := s.geo.nlev * s.geo.nc
	return s.cd[:n], s.cd[n : 2*n], s.cd[2*n : 3*n]
}

// thetaCell converts one column of T to θ at the window's old pressure. The
// Exner function factorises, (σ_k·ps/P0)^κ = σ_k^κ · (ps/P0)^κ: the level
// factors are tables and the column factor is one e^(±κ·ln(ps/P0)).
func (s *dyScratch) thetaCell(c int) {
	nlev := s.geo.nlev
	theta, _, _ := s.tracerFields()
	th := theta[c*nlev : (c+1)*nlev][:len(s.rsigK)]
	t := s.m.T[c*nlev : (c+1)*nlev][:len(th)]
	rExner := pp.Exp(-Kappa * math.Log(s.lnPs[c]/P0))
	for k, rsig := range s.rsigK {
		th[k] = t[k] * (rsig * rExner)
	}
}

// tracerStore writes one transported column back: θ to T at the new
// pressure, and moisture clipped at zero.
func (s *dyScratch) tracerStore(i int) {
	c := at(s.owned, i)
	m := s.m
	nlev := s.geo.nlev
	_, newTheta, newQv := s.tracerFields()
	t := m.T[c*nlev : (c+1)*nlev][:len(s.sigK)]
	qv := m.Qv[c*nlev : (c+1)*nlev][:len(t)]
	nth := newTheta[c*nlev : (c+1)*nlev][:len(t)]
	nqv := newQv[c*nlev : (c+1)*nlev][:len(t)]
	exner := pp.Exp(Kappa * math.Log(m.Ps[c]/P0))
	for k, sig := range s.sigK {
		t[k] = nth[k] * (sig * exner)
		qv[k] = math.Max(nqv[k], 0)
	}
}

// transport2 advances one column of θ and qv with the accumulated
// horizontal mass fluxes plus the implied vertical redistribution,
// conserving Σ M·X exactly for each. The signed edge masses, their
// divergence, the interface fluxes and the layer masses depend on the flow
// only, so they are formed once and drive two content accumulators; each
// tracer's arithmetic is term for term what a sweep of its own would do.
// Owned cells only: the upwind stencil reads both tracers on the ring-1
// halo, and the caller exchanges the written-back fields afterwards.
func (s *dyScratch) transport2(i int) {
	c := at(s.owned, i)
	m := s.m
	g := s.geo
	nlev := g.nlev
	var stack [3 * 64]float64
	work := stack[:]
	if 3*nlev > len(stack) {
		work = make([]float64, 3*nlev)
	}
	// Per-level content change of each tracer (kg·X) and accumulated mass
	// divergence (kg).
	dTh, dQv, hdiv := work[:nlev], work[nlev:2*nlev], work[2*nlev:3*nlev]
	for k := range dTh {
		dTh[k], dQv[k], hdiv[k] = 0, 0, 0
	}
	lo, hi := g.mesh.Slots(c)
	edges := g.mesh.SlotEdge[lo:hi]
	nbrs := g.mesh.SlotCell[lo:hi][:len(edges)]
	sgn := g.mesh.SlotSign[lo:hi][:len(edges)]
	theta, newTheta, newQv := s.tracerFields()
	th := theta[c*nlev : (c+1)*nlev][:nlev]
	qv := m.Qv[c*nlev : (c+1)*nlev][:nlev]

	// Horizontal: new mass content = old content − flux divergence, upwind.
	// Each slot is visited once with the levels inner; every level's three
	// accumulators still start at zero and add the slots in edge order.
	for j, e := range edges {
		sj := float64(sgn[j])
		nb := int(nbrs[j])
		fl := m.flux.edge[int(e)*nlev : (int(e)+1)*nlev][:nlev]
		thN := theta[nb*nlev : (nb+1)*nlev][:nlev]
		qN := m.Qv[nb*nlev : (nb+1)*nlev][:nlev]
		for k := range fl {
			fm := sj * fl[k] // kg leaving through e if > 0
			thUp, qUp := th[k], qv[k]
			if !(fm >= 0) {
				thUp, qUp = thN[k], qN[k]
			}
			dTh[k] -= fm * thUp
			dQv[k] -= fm * qUp
			hdiv[k] -= fm
		}
	}

	// Vertical redistribution: layer k's target mass is ps_new·Δσ/g·A. The
	// interface mass flux W (downward positive, kg over the window) follows
	// from per-layer continuity; upwind X across interfaces.
	areaG := m.Mesh.AreaCell[c] * g.re * g.re / Gravity // column mass per unit ps·Δσ
	psOld, psNew := s.lnPs[c], m.Ps[c]
	dpsA := (psNew - psOld) * areaG
	nth := newTheta[c*nlev : (c+1)*nlev][:nlev]
	nqv := newQv[c*nlev : (c+1)*nlev][:nlev]
	w := 0.0 // flux through the top of the current layer
	for k := 0; k < nlev; k++ {
		dsig := m.DSig[k]
		// Mass balance of layer k: ΔM_k = hdiv_k + w_top − w_bot
		// with ΔM_k = Δσ_k·Δps·A/g  ⇒  w_bot = hdiv_k + w_top − ΔM_k.
		wBot := hdiv[k] + w - dsig*dpsA
		if k == nlev-1 {
			wBot = 0 // closed lower boundary (telescopes exactly)
		}
		cTh, cQv := dTh[k], dQv[k]
		// Upwind interface values.
		if k > 0 {
			if w > 0 { // mass entering from above
				cTh += w * th[k-1]
				cQv += w * qv[k-1]
			} else {
				cTh += w * th[k]
				cQv += w * qv[k]
			}
		}
		if wBot > 0 { // mass leaving downward
			cTh -= wBot * th[k]
			cQv -= wBot * qv[k]
		} else if k < nlev-1 {
			cTh -= wBot * th[k+1]
			cQv -= wBot * qv[k+1]
		}
		layer := dsig * areaG
		oldMass := psOld * layer
		rNew := 1 / (psNew * layer)
		nth[k] = (th[k]*oldMass + cTh) * rNew
		nqv[k] = (qv[k]*oldMass + cQv) * rNew
		w = wBot
	}
}

// colWork is one column's work space in the physics step: nine level
// windows (U V T Q P in, DT DQ DU DV out) and the ColumnOut handed to the
// suite, which escapes through the Suite interface and so cannot live on
// the stack.
type colWork struct {
	lev []float64 // [9·nlev]
	out ColumnOut
}

// colPool recycles colWork buffers between columns, which may run
// concurrently under the model's pp.Space: buffered to the space's
// concurrency, it holds every buffer that can be in flight, so the column
// sweeps stop allocating without the model holding storage per cell.
type colPool chan *colWork

func (p colPool) get(nlev int) *colWork {
	select {
	case w := <-p:
		return w
	default:
		return &colWork{lev: make([]float64, 9*nlev)}
	}
}

func (p colPool) put(w *colWork) {
	select {
	case p <- w:
	default:
	}
}

// physicsStep runs the pluggable suite column by column and applies its
// tendencies; cell-vector momentum tendencies project back onto edges. The
// two sweeps' row bodies are bound once (dyScratch), with the step's dt
// beside them.
func (m *Model) physicsStep(dt float64) {
	mesh := m.Mesh
	nc, ne := mesh.NCells(), mesh.NEdges()

	s := m.dyEnsure()
	s.bindSets()
	s.physDt = dt

	// Physics columns run on the extended patch: the halo columns are
	// recomputed redundantly from inputs the exchanges keep bit-identical to
	// their owners', so the column outputs (T, Qv, and the seven export
	// fields) are halo-valid without any post-physics cell exchange.
	m.sweep(nil, nc, s.physColumnF)

	// Project the boundary-layer momentum tendency onto lowest-level edges.
	m.sweep(s.comp, ne, s.dragEdgeF)
	if m.dec != nil {
		// Only the lowest level changed; exchange just that level of each
		// column to refresh the received extended edges the projection left
		// stale.
		kB := m.NLev - 1
		m.dec.ExchangeEdgeLevels(m.U, m.NLev, kB, kB+1)
	}
}

// physCells returns the physics step's per-cell momentum tendency of the
// lowest level, (du, dv), in the scratch the tracer step does not hold.
func (s *dyScratch) physCells() (duCell, dvCell []float64) {
	return s.lnPs, s.vort[:s.m.Mesh.NCells()]
}

// physColumn runs the suite on cell c and applies its tendencies.
func (s *dyScratch) physColumn(c int) {
	m := s.m
	mesh := m.Mesh
	nlev := m.NLev
	dt := s.physDt
	duCell, dvCell := s.physCells()
	cw := m.cols.get(nlev)
	w := cw.lev
	for i := 5 * nlev; i < len(w); i++ {
		w[i] = 0 // the suite accumulates into the tendencies; the inputs are assigned below
	}
	in := ColumnIn{
		U: w[0:nlev], V: w[nlev : 2*nlev],
		T: w[2*nlev : 3*nlev], Q: w[3*nlev : 4*nlev],
		P:       w[4*nlev : 5*nlev],
		Lat:     mesh.LatCell[c],
		TSkin:   m.SST[c],
		CosZ:    m.cosZenith(c),
		Land:    m.IsLand[c],
		Ice:     m.IceFrac[c],
		SkipRad: m.radSkipped(c),
	}
	t, qv := m.Columns(m.T, c, 1), m.Columns(m.Qv, c, 1)
	for k := 0; k < nlev; k++ {
		in.U[k], in.V[k] = m.recon.CellUV(m.U, nlev, k, c)
		in.T[k] = t[k]
		in.Q[k] = qv[k]
		in.P[k] = m.Sig[k] * m.Ps[c]
	}
	out := &cw.out
	*out = ColumnOut{
		DT: w[5*nlev : 6*nlev], DQ: w[6*nlev : 7*nlev],
		DU: w[7*nlev : 8*nlev], DV: w[8*nlev : 9*nlev],
	}
	m.Physics.Column(in, dt, out)
	for k := 0; k < nlev; k++ {
		t[k] += dt * out.DT[k]
		qv[k] = math.Max(qv[k]+dt*out.DQ[k], 0)
	}
	// Lowest-level momentum tendency represents surface drag; store the
	// cell tendency for edge projection of the whole column via the
	// lowest level (dominant), and the precipitation for export.
	duCell[c] = out.DU[nlev-1]
	dvCell[c] = out.DV[nlev-1]
	m.Precip[c] = out.Precip
	if !in.SkipRad {
		m.GSW[c] = out.GSW
		m.GLW[c] = out.GLW
		m.radCols.Add(1)
	}

	// Upper-level momentum tendencies applied through the cell pair
	// averaging below need per-level storage; the conventional and AI
	// suites only produce boundary-layer drag, so the lowest level
	// carries the signal.
	m.cols.put(cw)
}

// dragEdge projects the cell drag tendency onto computed edge i's lowest
// level.
func (s *dyScratch) dragEdge(i int) {
	m := s.m
	mesh := m.Mesh
	duCell, dvCell := s.physCells()
	e := at(s.comp, i)
	c1, c2 := int(mesh.CellsOnEdge[e][0]), int(mesh.CellsOnEdge[e][1])
	n := m.recon.normal3[e]
	add := func(c int) float64 {
		vec := m.recon.east[c].Scale(duCell[c]).Add(m.recon.north[c].Scale(dvCell[c]))
		return vec.Dot(n)
	}
	m.U[m.Idx(e, m.NLev-1)] += s.physDt * 0.5 * (add(c1) + add(c2))
}

// cosZenith returns the diurnally-averaged cosine of the solar zenith angle
// for the model's perpetual-equinox insolation: cos(lat)/π, the daily mean
// at equinox. Using the daily mean (rather than an instantaneous sun fixed
// over one meridian) keeps every longitude climatologically equivalent,
// which regional experiments such as the Doksuri hindcast rely on.
func (m *Model) cosZenith(c int) float64 {
	cz := math.Cos(m.Mesh.LatCell[c]) / math.Pi
	if cz < 0 {
		cz = 0
	}
	return cz
}
