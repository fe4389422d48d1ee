package atmos

import (
	"math"

	"repro/internal/grid"
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

// Step advances the model by one dycore substep.
func (m *Model) Step() {
	dt := m.Cfg.DtDycore
	m.dynamicsSubstep(dt)
	m.steps++
	if m.steps%m.Cfg.TracerEvery == 0 {
		m.tracerStep()
	}
	if m.steps%m.Cfg.PhysicsEvery == 0 {
		m.physicsStep(dt * float64(m.Cfg.PhysicsEvery))
		if m.Cfg.Policy == precision.Mixed {
			for _, f := range [][]float64{m.U, m.T, m.Qv, m.Ps} {
				if err := precision.QuantizeInPlace(f, m.Cfg.PrecGroup); err != nil {
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

// StepModel advances one full model step (PhysicsEvery dycore substeps),
// the unit the coupler drives.
func (m *Model) StepModel() {
	for i := 0; i < m.Cfg.PhysicsEvery; i++ {
		m.Step()
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
	edge []float64 // [nlev*nEdges] ∫ F_e dt
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
// exactly the original schedule.
func (m *Model) RestoreState(steps int, edge, dps []float64) {
	m.steps = steps
	if edge == nil && dps == nil {
		return
	}
	ne, nc := m.Mesh.NEdges(), m.Mesh.NCells()
	if len(edge) != m.NLev*ne || len(dps) != nc {
		panic("atmos: restart flux accumulator size mismatch")
	}
	m.flux = &accFlux{
		edge: append([]float64(nil), edge...),
		dps:  append([]float64(nil), dps...),
	}
}

// dynamicsSubstep is the thin driver over the registered kernels in
// kernels.go: it refreshes the float64 thermodynamic diagnostics, launches
// the cell/vertex/edge kernels at the configured precision, and keeps the
// continuity update (exact conservation) in float64. The float64 path is
// bit-for-bit the pre-refactor sweep; the mixed path runs the same kernel
// bodies at float32 with the sensitive differences still formed in float64.
func (m *Model) dynamicsSubstep(dt float64) {
	mesh := m.Mesh
	nc, ne := mesh.NCells(), mesh.NEdges()
	nlev := m.NLev
	re := grid.EarthRadius

	if m.flux == nil {
		m.flux = &accFlux{
			edge: make([]float64, nlev*ne),
			dps:  make([]float64, nc),
		}
	}
	s := m.dyEnsure()
	s.eg.bindStep(dt, m.Cfg.Div4, m.Cfg.KhMomentum)

	// --- Diagnostics needed by the momentum equation ---

	// Virtual temperature and geopotential at full levels — the Log-based
	// vertical integral stays float64 at every kernel precision.
	tv, phi := s.tv, s.phi
	lnMid, lnLayer := s.lnMid, s.lnLayer
	m.forExtCells(func(c int) {
		below := 0.0 // geopotential at the interface below the current layer
		for k := nlev - 1; k >= 0; k-- {
			i := k*nc + c
			tv[i] = m.T[i] * (1 + 0.608*m.Qv[i])
			phi[i] = below + Rd*tv[i]*lnMid[k]
			below += Rd * tv[i] * lnLayer[k]
		}
	})
	// Per-cell ln(ps), hoisted out of the per-edge momentum loop: the same
	// math.Log on the same input, so every edge reads identical bits.
	lnPs := s.lnPs
	m.forExtCells(func(c int) { lnPs[c] = math.Log(m.Ps[c]) })

	// --- Cell diagnostics, vorticity, momentum: registered kernels ---
	var cells, verts, edges []int
	if m.dec != nil {
		cells, verts, edges = m.dec.ExtCells, m.dec.CompVerts, m.dec.CompEdges
	}
	if m.kprec == pp.PrecMixed {
		m32 := s.m32
		pp.Convert32(m32.u, m.U)
		for i := range m32.newU {
			m32.newU[i] = 0
		}
		m32.bKeDiv.cells = cells
		pp.Kernels.MustLaunch(hAtmKeDiv, m.Sp, m32.bKeDiv)
		m32.bVort.verts = verts
		pp.Kernels.MustLaunch(hAtmVort, m.Sp, m32.bVort)
		m32.bMom.edges = edges
		pp.Kernels.MustLaunch(hAtmMomentum, m.Sp, m32.bMom)
	} else {
		for i := range s.newU {
			s.newU[i] = 0
		}
		s.bKeDiv.u, s.bKeDiv.cells = m.U, cells
		pp.Kernels.MustLaunch(hAtmKeDiv, m.Sp, s.bKeDiv)
		s.bVort.u, s.bVort.verts = m.U, verts
		pp.Kernels.MustLaunch(hAtmVort, m.Sp, s.bVort)
		s.bMom.u, s.bMom.newU, s.bMom.edges = m.U, s.newU, edges
		pp.Kernels.MustLaunch(hAtmMomentum, m.Sp, s.bMom)
		s.bKeDiv.u, s.bVort.u, s.bMom.u, s.bMom.newU = nil, nil, nil, nil
	}

	// --- Continuity: per-level mass fluxes and surface pressure ---
	// Mass per area of layer k is ps·Δσ_k/g; the flux through an edge uses
	// upwind ps, evaluated with the *pre-update* velocity for consistency
	// with the accumulated tracer fluxes.
	dpsDt := s.dpsDt
	for i := range dpsDt {
		dpsDt[i] = 0
	}
	m.forOwnedCells(func(c int) {
		var sum float64
		for k := 0; k < nlev; k++ {
			uLvl := m.U[k*ne : (k+1)*ne]
			for j, e := range mesh.EdgesOnCell[c] {
				sign := float64(mesh.EdgeSignOnCell[c][j])
				u := uLvl[e]
				// Upwind surface pressure.
				var psUp float64
				if sign*u >= 0 {
					psUp = m.Ps[c]
				} else {
					psUp = m.Ps[mesh.CellsOnCell[c][j]]
				}
				sum += sign * u * psUp * m.DSig[k] * mesh.Dv[e] * re
			}
		}
		dpsDt[c] = -sum / (mesh.AreaCell[c] * re * re)
	})
	// Edge flux accumulation runs over edges (each edge once); decomposed,
	// every edge of an owned cell is a computed edge, so the accumulators the
	// tracer step reads are always locally valid.
	m.forCompEdges(func(e int) {
		c1, c2 := mesh.CellsOnEdge[e][0], mesh.CellsOnEdge[e][1]
		for k := 0; k < nlev; k++ {
			u := m.U[k*ne+e]
			var psUp float64
			if u >= 0 {
				psUp = m.Ps[c1]
			} else {
				psUp = m.Ps[c2]
			}
			// kg/s through the edge (positive c1→c2), times dt.
			m.flux.edge[k*ne+e] += dt * u * psUp * m.DSig[k] / Gravity * m.Mesh.Dv[e] * re
		}
	})
	m.forOwnedCells(func(c int) {
		m.Ps[c] += dt * dpsDt[c]
		m.flux.dps[c] += dt * dpsDt[c]
	})
	// Publish the momentum update. The float64 path swaps the persistent
	// scratch in (the retired array becomes next substep's scratch); the
	// mixed path widens the float32 result back into the model state.
	if m.kprec == pp.PrecMixed {
		pp.Convert64(m.U, s.m32.newU)
	} else {
		m.U, s.newU = s.newU, m.U
	}
	if m.dec != nil {
		// Halo barrier: refresh Ps on the ring-1 halo and U on the extended
		// edges the neighbours own, so the next substep's stencils read the
		// owners' freshly computed values.
		m.dec.ExchangeCells(m.Ps, 1)
		m.dec.ExchangeEdges(m.U, nlev)
	}
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

	// Pre-update masses: ps before this tracer window = Ps - accumulated dps.
	// The full-range loop is kept in both modes: outside the extended patch
	// the inputs are stale-but-finite and the result is never read.
	s := m.dyEnsure()
	psOld := s.lnPs
	for c := 0; c < nc; c++ {
		psOld[c] = m.Ps[c] - m.flux.dps[c]
	}

	// θ and qv as mass-weighted quantities.
	theta := s.tv
	m.forExtCells(func(c int) {
		for k := 0; k < nlev; k++ {
			i := k*nc + c
			theta[i] = m.T[i] * math.Pow(P0/(m.Sig[k]*psOld[c]), Kappa)
		}
	})

	newTheta, newQv := s.phi, s.ke
	m.transport(theta, psOld, newTheta)
	m.transport(m.Qv, psOld, newQv)

	m.forOwnedCells(func(c int) {
		for k := 0; k < nlev; k++ {
			i := k*nc + c
			m.T[i] = newTheta[i] * math.Pow(m.Sig[k]*m.Ps[c]/P0, Kappa)
			m.Qv[i] = math.Max(newQv[i], 0)
		}
	})
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

// transport advances one tracer with the accumulated horizontal mass fluxes
// plus the implied vertical redistribution, conserving Σ M·X exactly. The
// result lands in out on owned cells; the rest of out is left alone.
func (m *Model) transport(x, psOld, out []float64) {
	mesh := m.Mesh
	nc, ne := mesh.NCells(), mesh.NEdges()
	nlev := m.NLev
	re := grid.EarthRadius

	// Per-cell: new mass content = old content − horizontal flux divergence
	// − vertical flux divergence, then divide by new mass. Owned cells only:
	// the upwind stencil reads x on the ring-1 halo, and the caller
	// exchanges the written-back tracers afterwards.
	m.forOwnedCells(func(c int) {
		area := mesh.AreaCell[c] * re * re
		// Horizontal: per-level content change (kg·X).
		cw := m.cols.get(nlev)
		dContent := cw.lev[:nlev]
		hdiv := cw.lev[nlev : 2*nlev] // accumulated mass divergence per level (kg)
		for k := 0; k < nlev; k++ {
			dContent[k], hdiv[k] = 0, 0
			for j, e := range mesh.EdgesOnCell[c] {
				sign := float64(mesh.EdgeSignOnCell[c][j])
				fm := sign * m.flux.edge[k*ne+e] // kg leaving through e if > 0
				var xUp float64
				if fm >= 0 {
					xUp = x[k*nc+c]
				} else {
					xUp = x[k*nc+mesh.CellsOnCell[c][j]]
				}
				dContent[k] -= fm * xUp
				hdiv[k] -= fm
			}
		}
		// Vertical redistribution: layer k's target mass is ps_new·Δσ/g·A.
		// The interface mass flux W (downward positive, kg over the window)
		// follows from per-layer continuity; upwind X across interfaces.
		dpsA := (m.Ps[c] - psOld[c]) * area / Gravity
		w := 0.0 // flux through the top of the current layer
		for k := 0; k < nlev; k++ {
			// Mass balance of layer k: ΔM_k = hdiv_k + w_top − w_bot
			// with ΔM_k = Δσ_k·Δps·A/g  ⇒  w_bot = hdiv_k + w_top − ΔM_k.
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
			oldMass := psOld[c] * m.DSig[k] / Gravity * area
			newMass := m.Ps[c] * m.DSig[k] / Gravity * area
			out[k*nc+c] = (x[k*nc+c]*oldMass + dContent[k]) / newMass
			w = wBot
		}
		m.cols.put(cw)
	})
}

// colWork is one column's work space in the tracer and physics steps: nine
// level windows (physics: U V T Q P in, DT DQ DU DV out; transport uses the
// first two) and the ColumnOut handed to the suite, which escapes through
// the Suite interface and so cannot live on the stack.
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
// tendencies; cell-vector momentum tendencies project back onto edges.
func (m *Model) physicsStep(dt float64) {
	mesh := m.Mesh
	nc, ne := mesh.NCells(), mesh.NEdges()
	nlev := m.NLev

	s := m.dyEnsure()
	duCell, dvCell := s.lnPs, s.dpsDt

	// Physics columns run on the extended patch: the halo columns are
	// recomputed redundantly from inputs the exchanges keep bit-identical to
	// their owners', so the column outputs (T, Qv, and the seven export
	// fields) are halo-valid without any post-physics cell exchange.
	m.forExtCells(func(c int) {
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
		for k := 0; k < nlev; k++ {
			uLvl := m.U[k*ne : (k+1)*ne]
			in.U[k], in.V[k] = m.recon.CellUV(uLvl, c)
			in.T[k] = m.T[k*nc+c]
			in.Q[k] = m.Qv[k*nc+c]
			in.P[k] = m.Sig[k] * m.Ps[c]
		}
		out := &cw.out
		*out = ColumnOut{
			DT: w[5*nlev : 6*nlev], DQ: w[6*nlev : 7*nlev],
			DU: w[7*nlev : 8*nlev], DV: w[8*nlev : 9*nlev],
		}
		m.Physics.Column(in, dt, out)
		for k := 0; k < nlev; k++ {
			i := k*nc + c
			m.T[i] += dt * out.DT[k]
			m.Qv[i] = math.Max(m.Qv[i]+dt*out.DQ[k], 0)
		}
		// Lowest-level momentum tendency represents surface drag; store the
		// cell tendency for edge projection of the whole column via the
		// lowest level (dominant), and the fluxes for export.
		duCell[c] = out.DU[nlev-1]
		dvCell[c] = out.DV[nlev-1]
		m.Precip[c] = out.Precip
		m.TauX[c] = out.TauX
		m.TauY[c] = out.TauY
		m.SHF[c] = out.SHF
		m.LHF[c] = out.LHF
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
	})

	// Project the boundary-layer momentum tendency onto lowest-level edges.
	kB := nlev - 1
	m.forCompEdges(func(e int) {
		c1, c2 := mesh.CellsOnEdge[e][0], mesh.CellsOnEdge[e][1]
		n := m.recon.normal3[e]
		add := func(c int) float64 {
			vec := m.recon.east[c].Scale(duCell[c]).Add(m.recon.north[c].Scale(dvCell[c]))
			return vec.Dot(n)
		}
		m.U[kB*ne+e] += dt * 0.5 * (add(c1) + add(c2))
	})
	if m.dec != nil {
		// Only the lowest level changed; exchange just that contiguous window
		// to refresh the received extended edges the projection left stale.
		m.dec.ExchangeEdges(m.U[kB*ne:(kB+1)*ne], 1)
	}
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
