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

// refStepper advances a Model with the plain loops the restructured dycore
// replaced — level-major scratch, one (row, level) body per call, the
// continuity cell loop over the ragged mesh tables, one transport sweep per
// tracer, math.Pow for the θ↔T conversions — kept verbatim as the oracle
// TestStepMatchesReferenceLoops steps the live code against. Nothing outside
// this file may call it. The physics step is the model's own: it is not part
// of the restructure.
type refStepper struct {
	m *Model

	tv, phi, lnPs []float64
	vcx, vcy, vcz []float64
	ke, div, vort []float64
	newU, dpsDt   []float64
	newTheta      []float64
	newQv         []float64
}

func newRefStepper(m *Model) *refStepper {
	nc, ne, nv := m.Mesh.NCells(), m.Mesh.NEdges(), m.Mesh.NVertices()
	n := m.NLev * nc
	f := func(n int) []float64 { return make([]float64, n) }
	return &refStepper{
		m:  m,
		tv: f(n), phi: f(n), lnPs: f(nc),
		vcx: f(n), vcy: f(n), vcz: f(n), ke: f(n), div: f(n),
		vort: f(m.NLev * nv), newU: f(m.NLev * ne), dpsDt: f(nc),
		newTheta: f(n), newQv: f(n),
	}
}

// sweepSet runs fn over the listed indices, or over [0, n) when the model is
// not decomposed — the four for* helpers the original sweeps went through.
func (r *refStepper) sweepSet(set func(*grid.IcosDecomp) []int, n int, fn func(i int)) {
	m := r.m
	if m.dec == nil {
		m.Sp.ParallelFor(n, fn)
		return
	}
	idx := set(m.dec)
	m.Sp.ParallelFor(len(idx), func(i int) { fn(idx[i]) })
}

func (r *refStepper) forExtCells(fn func(c int)) {
	r.sweepSet(func(d *grid.IcosDecomp) []int { return d.ExtCells }, r.m.Mesh.NCells(), fn)
}

func (r *refStepper) forOwnedCells(fn func(c int)) {
	r.sweepSet(func(d *grid.IcosDecomp) []int { return d.Owned }, r.m.Mesh.NCells(), fn)
}

func (r *refStepper) forCompEdges(fn func(e int)) {
	r.sweepSet(func(d *grid.IcosDecomp) []int { return d.CompEdges }, r.m.Mesh.NEdges(), fn)
}

func (r *refStepper) forCompVerts(fn func(v int)) {
	r.sweepSet(func(d *grid.IcosDecomp) []int { return d.CompVerts }, r.m.Mesh.NVertices(), fn)
}

// stepModel is Model.StepModel over the reference substep and tracer step.
func (r *refStepper) stepModel() {
	m := r.m
	for i := 0; i < m.Cfg.PhysicsEvery; i++ {
		dt := m.Cfg.DtDycore
		r.dynamicsSubstep(dt)
		m.steps++
		if m.steps%m.Cfg.TracerEvery == 0 {
			r.tracerStep()
		}
		if m.steps%m.Cfg.PhysicsEvery == 0 {
			m.physicsStep(dt * float64(m.Cfg.PhysicsEvery))
		}
	}
}

func (r *refStepper) dynamicsSubstep(dt float64) {
	m := r.m
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

	tv, phi := r.tv, r.phi
	lnMid, lnLayer := s.lnMid, s.lnLayer
	r.forExtCells(func(c int) {
		below := 0.0 // geopotential at the interface below the current layer
		for k := nlev - 1; k >= 0; k-- {
			i := k*nc + c
			tv[i] = m.T[i] * (1 + 0.608*m.Qv[i])
			phi[i] = below + Rd*tv[i]*lnMid[k]
			below += Rd * tv[i] * lnLayer[k]
		}
	})
	lnPs := r.lnPs
	r.forExtCells(func(c int) { lnPs[c] = math.Log(m.Ps[c]) })

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
		g := s.geo
		c1, c2 := int(g.ec1[e]), int(g.ec2[e])
		v1, v2 := int(g.ev1[e]), int(g.ev2[e])
		eg := s.eg
		dcm, dvm := eg.dcm[e], eg.dvm[e]
		f, damp := eg.fE[e], eg.damp[e]
		psd := lnPs[c2] - lnPs[c1]
		tx, ty, tz := g.tX[e], g.tY[e], g.tZ[e]
		for k := 0; k < nlev; k++ {
			r.momentumLevel(e, k, c1, c2, v1, v2, tx, ty, tz, eg.dt, f, psd, dcm, dvm, damp)
		}
	})

	// --- Continuity: per-level mass fluxes and surface pressure ---
	dpsDt := r.dpsDt
	for i := range dpsDt {
		dpsDt[i] = 0
	}
	r.forOwnedCells(func(c int) {
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
	r.forCompEdges(func(e int) {
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
	r.forOwnedCells(func(c int) {
		m.Ps[c] += dt * dpsDt[c]
		m.flux.dps[c] += dt * dpsDt[c]
	})
	m.U, r.newU = r.newU, m.U
	if m.dec != nil {
		m.dec.ExchangeCells(m.Ps, 1)
		m.dec.ExchangeEdges(m.U, nlev)
	}
}

// keDivLevel runs one (cell, level): v = Σ w_e·u_e, ke = ½|v|², div =
// Σ s·u·Dv·re over the cell area.
func (r *refStepper) keDivLevel(c, k int) {
	g := r.m.dy.geo
	u := r.m.U
	kn := k * g.ne
	re := g.re
	var vx, vy, vz, d float64
	for o := g.ceStart[c]; o < g.ceStart[c+1]; o++ {
		uE := u[kn+int(g.ceEdge[o])]
		vx += g.wX[o] * uE
		vy += g.wY[o] * uE
		vz += g.wZ[o] * uE
		d += g.sdv[o] * uE * re
	}
	ic := k*g.nc + c
	r.vcx[ic], r.vcy[ic], r.vcz[ic] = vx, vy, vz
	r.ke[ic] = 0.5 * (vx*vx + vy*vy + vz*vz)
	r.div[ic] = d / g.areaRR[c]
}

func (r *refStepper) vortLevel(v, k int) {
	g := r.m.dy.geo
	u := r.m.U
	kn := k * g.ne
	re := g.re
	var circ float64
	circ += g.sdc[3*v] * u[kn+int(g.veEdge[3*v])] * re
	circ += g.sdc[3*v+1] * u[kn+int(g.veEdge[3*v+1])] * re
	circ += g.sdc[3*v+2] * u[kn+int(g.veEdge[3*v+2])] * re
	r.vort[k*g.nv+v] = circ / g.dualRR[v]
}

// momentumLevel is one (edge, level) momentum update: Coriolis on the
// tangential wind, KE+geopotential gradient, surface-pressure gradient,
// divergence damping, vector Laplacian viscosity.
func (r *refStepper) momentumLevel(e, k, c1, c2, v1, v2 int, tx, ty, tz, dtT, f, psd, dcm, dvm, damp float64) {
	g := r.m.dy.geo
	ic1, ic2 := k*g.nc+c1, k*g.nc+c2
	iv1, iv2 := k*g.nv+v1, k*g.nv+v2
	half := 0.5
	ut := half*(r.vcx[ic1]+r.vcx[ic2])*tx +
		half*(r.vcy[ic1]+r.vcy[ic2])*ty +
		half*(r.vcz[ic1]+r.vcz[ic2])*tz
	eta := f + 0.5*(r.vort[iv1]+r.vort[iv2])
	du := eta * ut
	du -= (r.ke[ic2] - r.ke[ic1] + r.phi[ic2] - r.phi[ic1]) / dcm
	tvb := 0.5 * (r.tv[ic1] + r.tv[ic2])
	du -= Rd * tvb * psd / dcm
	dd := r.div[ic2] - r.div[ic1]
	du += damp * dd / dcm
	lap := dd/dcm - (r.vort[iv2]-r.vort[iv1])/dvm
	du += r.m.dy.eg.kh * lap
	i := k*g.ne + e
	r.newU[i] = r.m.U[i] + dtT*du
}

func (r *refStepper) tracerStep() {
	m := r.m
	nc := m.Mesh.NCells()
	nlev := m.NLev

	if m.dec != nil {
		m.dec.ExchangeCells(m.flux.dps, 1)
	}
	psOld := r.lnPs
	for c := 0; c < nc; c++ {
		psOld[c] = m.Ps[c] - m.flux.dps[c]
	}

	// θ and qv as mass-weighted quantities.
	theta := r.tv
	r.forExtCells(func(c int) {
		for k := 0; k < nlev; k++ {
			i := k*nc + c
			theta[i] = m.T[i] * math.Pow(P0/(m.Sig[k]*psOld[c]), Kappa)
		}
	})

	newTheta, newQv := r.newTheta, r.newQv
	r.transport(theta, psOld, newTheta)
	r.transport(m.Qv, psOld, newQv)

	r.forOwnedCells(func(c int) {
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

	for i := range m.flux.edge {
		m.flux.edge[i] = 0
	}
	for i := range m.flux.dps {
		m.flux.dps[i] = 0
	}
}

// transport advances one tracer with the accumulated horizontal mass fluxes
// plus the implied vertical redistribution, conserving Σ M·X exactly.
func (r *refStepper) transport(x, psOld, out []float64) {
	m := r.m
	mesh := m.Mesh
	nc, ne := mesh.NCells(), mesh.NEdges()
	nlev := m.NLev
	re := grid.EarthRadius

	r.forOwnedCells(func(c int) {
		area := mesh.AreaCell[c] * re * re
		// Horizontal: per-level content change (kg·X).
		dContent := make([]float64, nlev)
		hdiv := make([]float64, nlev) // accumulated mass divergence per level (kg)
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
		dpsA := (m.Ps[c] - psOld[c]) * area / Gravity
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
			oldMass := psOld[c] * m.DSig[k] / Gravity * area
			newMass := m.Ps[c] * m.DSig[k] / Gravity * area
			out[k*nc+c] = (x[k*nc+c]*oldMass + dContent[k]) / newMass
			w = wBot
		}
	})
}

// perturb draws a rough but stable state from the seed: ps, T and qv jittered
// around the resting initial condition, a random wind of a few m/s, and one
// edge in eight pinned to exactly +0 or −0 on every level (the case where the
// two sides of an edge may disagree on the upwind cell). Seed 0 leaves the
// model at rest: every edge exactly +0.
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
			m.U[k*ne+e] = zero
		}
	}
}

// sameBits reports the first index in idx (every index when idx is nil, the
// fields being level-major with the given stride) where got and want differ
// in any bit.
func sameBits(t *testing.T, what string, got, want []float64, idx []int, stride int) {
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
	for k := 0; k*stride < len(got); k++ {
		for _, j := range idx {
			if !check(k*stride + j) {
				return
			}
		}
	}
}

// TestStepMatchesReferenceLoops is the bit-for-bit contract against history:
// from seeded random states, one full model step (15 substeps, three tracer
// steps, one physics step) through the live dycore and through the reference
// loops above must leave identical bits in every prognostic and in the flux
// accumulators — on the global sets under Serial and Host, and decomposed
// over 2, 3 and 4 ranks. Odd level counts exercise the tail of the pairwise
// cell-diagnostics walk.
func TestStepMatchesReferenceLoops(t *testing.T) {
	const level = 2
	cfg := DefaultConfig()
	// build returns two identical models; the error path is unreachable for
	// these arguments but may not t.Fatal from a rank goroutine.
	build := func(nlev int, sp pp.Space, seed int64) (live, ref *Model, err error) {
		var ms [2]*Model
		for i := range ms {
			if ms[i], err = New(level, nlev, cfg, sp); err != nil {
				return nil, nil, err
			}
			perturb(ms[i], seed)
		}
		return ms[0], ms[1], nil
	}
	// compare checks the state on the given cell/edge sets (nil: everywhere).
	compare := func(t *testing.T, live, ref *Model, cells, edges, fluxEdges []int) {
		t.Helper()
		nc, ne := live.Mesh.NCells(), live.Mesh.NEdges()
		sameBits(t, "Ps", live.Ps, ref.Ps, cells, nc)
		sameBits(t, "T", live.T, ref.T, cells, nc)
		sameBits(t, "Qv", live.Qv, ref.Qv, cells, nc)
		sameBits(t, "U", live.U, ref.U, edges, ne)
		sameBits(t, "flux.edge", live.flux.edge, ref.flux.edge, fluxEdges, ne)
		sameBits(t, "flux.dps", live.flux.dps, ref.flux.dps, cells, nc)
	}

	for _, sp := range []pp.Space{pp.Serial{}, pp.NewHost(4)} {
		for _, nlev := range []int{7, 8} {
			for seed := int64(0); seed < 4; seed++ {
				t.Run(fmt.Sprintf("%s/nlev%d/seed%d", sp.Name(), nlev, seed), func(t *testing.T) {
					live, ref, err := build(nlev, sp, seed)
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
						live, ref, err := build(nlev, nil, seed)
						if err != nil {
							t.Error(err)
							return
						}
						for _, m := range []*Model{live, ref} {
							d, err := grid.NewIcosDecomp(m.Mesh, c)
							if err != nil {
								t.Errorf("NewIcosDecomp: %v", err)
								return
							}
							m.SetDecomp(d)
						}
						live.StepModel()
						newRefStepper(ref).stepModel()
						d := live.Decomp()
						compare(t, live, ref, d.Owned, d.OwnEdges, d.CompEdges)
					})
				})
			}
		}
	}
}

// powKappa replaces math.Pow(x, Kappa) in the θ↔T conversions on the
// strength of an identity of math.Pow's implementation, not of its contract:
// for 0 < y < ½ and finite positive x it computes Ldexp(Exp(y·Log x), 0).
// This pins the identity over both reachable argument ranges — σ_k·ps/p0 for
// ps from 300 to 1200 hPa, and its reciprocal — on a dense grid and on seeded
// random draws, so a toolchain whose pow.go differs fails here instead of
// shifting the model's bits.
func TestPowKappaMatchesMathPow(t *testing.T) {
	const sigMin, sigMax = 0.05, 1.0 // model top to surface
	lo, hi := sigMin*3e4/P0, sigMax*1.2e5/P0
	check := func(x float64) {
		t.Helper()
		if got, want := powKappa(x), math.Pow(x, Kappa); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("powKappa(%v) = %v (%#x), math.Pow gives %v (%#x)",
				x, got, math.Float64bits(got), want, math.Float64bits(want))
		}
	}
	const dense = 200000
	for i := 0; i <= dense; i++ {
		x := lo + (hi-lo)*float64(i)/dense
		check(x)
		check(1 / x)
	}
	rng := rand.New(rand.NewSource(21))
	for i := 0; i < 1_000_000; i++ {
		// Log-uniform over the forward range, so the thin upper levels are
		// sampled as densely as the surface.
		x := lo * math.Exp(rng.Float64()*math.Log(hi/lo))
		check(x)
		check(1 / x)
	}
	// The model's own arguments: every level at a spread of surface pressures.
	m := newTestModel(t, 1, 30)
	for _, sig := range m.Sig {
		for ps := 3e4; ps <= 1.2e5; ps += 37.3 {
			check(sig * ps / P0)
			check(P0 / (sig * ps))
		}
	}
}
