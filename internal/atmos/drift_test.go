package atmos

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/grid"
	"repro/internal/pp"
)

// parentStepper advances a Model with the dycore's arithmetic as it stood
// before PR 24 regrouped it — a division by the metric length or area inside
// every level loop, the upwind surface pressure chosen per (cell, slot,
// level) and 48 terms summed per cell, math.Pow per (column, level) for the
// θ↔T conversions — kept verbatim as the twin TestDycoreRegroupingDrift
// measures the live model against. Like the oracle in reference_test.go it
// builds its metric factors from the IcosMesh itself (the parent's tables:
// lengths and areas, not reciprocals) and steps a private level-major copy of
// the state. Nothing outside this file may call it.
type parentStepper struct {
	rowSets
	levelState

	areaRR, dualRR     []float64 // (Area·re)·re per cell, per vertex
	dcm, dvm, damp, fE []float64 // per edge: Dc·re, Dv·re, Div4·dcm²/dt, Coriolis
	tan                []grid.Vec3
	lnMid, lnLayer     []float64

	tv, phi, lnPs []float64
	vcx, vcy, vcz []float64
	ke, div, vort []float64
	newU, dpsDt   []float64
	newTheta      []float64
	newQv         []float64
}

func newParentStepper(m *Model) *parentStepper {
	mesh := m.Mesh
	nc, ne, nv := mesh.NCells(), mesh.NEdges(), mesh.NVertices()
	nlev := m.NLev
	n := nlev * nc
	re := grid.EarthRadius
	f := func(n int) []float64 { return make([]float64, n) }
	r := &parentStepper{
		rowSets:    rowSets{m},
		levelState: newLevelState(m),
		areaRR:     f(nc), dualRR: f(nv),
		dcm: f(ne), dvm: f(ne), damp: f(ne), fE: f(ne),
		tan:   make([]grid.Vec3, ne),
		lnMid: f(nlev), lnLayer: f(nlev),
		tv: f(n), phi: f(n), lnPs: f(nc),
		vcx: f(n), vcy: f(n), vcz: f(n), ke: f(n), div: f(n),
		vort: f(nlev * nv), newU: f(nlev * ne), dpsDt: f(nc),
		newTheta: f(n), newQv: f(n),
	}
	for c := range r.areaRR {
		r.areaRR[c] = mesh.AreaCell[c] * re * re
	}
	for v := range r.dualRR {
		r.dualRR[v] = mesh.AreaDual[v] * re * re
	}
	for e := 0; e < ne; e++ {
		r.dcm[e] = mesh.Dc[e] * re
		r.dvm[e] = mesh.Dv[e] * re
		_, lat := grid.LonLat(mesh.EdgeMidpoint(e))
		r.fE[e] = 2 * 7.292e-5 * math.Sin(lat)
		r.tan[e] = mesh.EdgeMidpoint(e).Cross(m.recon.normal3[e])
	}
	for k := 0; k < nlev; k++ {
		sTop, sBot := m.sigInt(k), m.sigInt(k+1)
		r.lnMid[k] = math.Log(sBot / m.Sig[k])
		r.lnLayer[k] = math.Log(sBot / sTop)
	}
	return r
}

func (r *parentStepper) stepModel() { stepModelLoops(r.m, r.dynamicsSubstep, r.tracerStep) }

func (r *parentStepper) dynamicsSubstep(dt float64) {
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
	for e, dcm := range r.dcm {
		r.damp[e] = m.Cfg.Div4 * dcm * dcm / dt
	}
	r.enter(m)

	tv, phi := r.tv, r.phi
	lnMid, lnLayer := r.lnMid, r.lnLayer
	r.forExtCells(func(c int) {
		below := 0.0 // geopotential at the interface below the current layer
		for k := nlev - 1; k >= 0; k-- {
			i := k*nc + c
			tv[i] = r.t[i] * (1 + 0.608*r.qv[i])
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
		c1, c2 := int(mesh.CellsOnEdge[e][0]), int(mesh.CellsOnEdge[e][1])
		v1, v2 := int(mesh.VerticesOnEdge[e][0]), int(mesh.VerticesOnEdge[e][1])
		psd := lnPs[c2] - lnPs[c1]
		t := r.tan[e]
		for k := 0; k < nlev; k++ {
			r.momentumLevel(e, k, c1, c2, v1, v2, t.X, t.Y, t.Z, dt, r.fE[e], psd, r.dcm[e], r.dvm[e], r.damp[e])
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
			uLvl := r.u[k*ne : (k+1)*ne]
			for j, e := range mesh.EdgesOnCell(c) {
				sign := float64(edgeSigns(mesh, c)[j])
				u := uLvl[e]
				// Upwind surface pressure.
				var psUp float64
				if sign*u >= 0 {
					psUp = m.Ps[c]
				} else {
					psUp = m.Ps[int(mesh.CellsOnCell(c)[j])]
				}
				sum += sign * u * psUp * m.DSig[k] * mesh.Dv[e] * re
			}
		}
		dpsDt[c] = -sum / (mesh.AreaCell[c] * re * re)
	})
	r.forCompEdges(func(e int) {
		c1, c2 := int(mesh.CellsOnEdge[e][0]), int(mesh.CellsOnEdge[e][1])
		for k := 0; k < nlev; k++ {
			u := r.u[k*ne+e]
			var psUp float64
			if u >= 0 {
				psUp = m.Ps[c1]
			} else {
				psUp = m.Ps[c2]
			}
			// kg/s through the edge (positive c1→c2), times dt.
			r.fluxEdge[k*ne+e] += dt * u * psUp * m.DSig[k] / Gravity * m.Mesh.Dv[e] * re
		}
	})
	r.forOwnedCells(func(c int) {
		m.Ps[c] += dt * dpsDt[c]
		m.flux.dps[c] += dt * dpsDt[c]
	})
	r.u, r.newU = r.newU, r.u
	r.exit(m)
	if m.dec != nil {
		m.dec.ExchangeCells(m.Ps, 1)
		m.dec.ExchangeEdges(m.U, nlev)
	}
}

// keDivLevel runs one (cell, level): v = Σ w_e·u_e, ke = ½|v|², div =
// Σ s·u·Dv·re over the cell area.
func (r *parentStepper) keDivLevel(c, k int) {
	m := r.m
	mesh := m.Mesh
	kn := k * mesh.NEdges()
	re := grid.EarthRadius
	var vx, vy, vz, d float64
	lo, hi := mesh.Slots(c)
	for s := lo; s < hi; s++ {
		e := int(mesh.SlotEdge[s])
		uE := r.u[kn+e]
		w := m.recon.weight(s)
		vx += w.X * uE
		vy += w.Y * uE
		vz += w.Z * uE
		d += float64(mesh.SlotSign[s]) * mesh.Dv[e] * uE * re
	}
	ic := k*mesh.NCells() + c
	r.vcx[ic], r.vcy[ic], r.vcz[ic] = vx, vy, vz
	r.ke[ic] = 0.5 * (vx*vx + vy*vy + vz*vz)
	r.div[ic] = d / r.areaRR[c]
}

func (r *parentStepper) vortLevel(v, k int) {
	mesh := r.m.Mesh
	kn := k * mesh.NEdges()
	re := grid.EarthRadius
	var circ float64
	for j, e := range mesh.EdgesOnVertex[v] {
		circ += float64(mesh.EdgeSignOnVtx[v][j]) * mesh.Dc[e] * r.u[kn+int(e)] * re
	}
	r.vort[k*mesh.NVertices()+v] = circ / r.dualRR[v]
}

// momentumLevel is one (edge, level) momentum update: Coriolis on the
// tangential wind, KE+geopotential gradient, surface-pressure gradient,
// divergence damping, vector Laplacian viscosity.
func (r *parentStepper) momentumLevel(e, k, c1, c2, v1, v2 int, tx, ty, tz, dtT, f, psd, dcm, dvm, damp float64) {
	mesh := r.m.Mesh
	nc, ne, nv := mesh.NCells(), mesh.NEdges(), mesh.NVertices()
	ic1, ic2 := k*nc+c1, k*nc+c2
	iv1, iv2 := k*nv+v1, k*nv+v2
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
	du += r.m.Cfg.KhMomentum * lap
	i := k*ne + e
	r.newU[i] = r.u[i] + dtT*du
}

func (r *parentStepper) tracerStep() {
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

	// θ and qv as mass-weighted quantities.
	theta := r.tv
	r.forExtCells(func(c int) {
		for k := 0; k < nlev; k++ {
			i := k*nc + c
			theta[i] = r.t[i] * math.Pow(P0/(m.Sig[k]*psOld[c]), Kappa)
		}
	})

	newTheta, newQv := r.newTheta, r.newQv
	r.transport(theta, psOld, newTheta)
	r.transport(r.qv, psOld, newQv)

	r.forOwnedCells(func(c int) {
		for k := 0; k < nlev; k++ {
			i := k*nc + c
			r.t[i] = newTheta[i] * math.Pow(m.Sig[k]*m.Ps[c]/P0, Kappa)
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
// plus the implied vertical redistribution, conserving Σ M·X exactly.
func (r *parentStepper) transport(x, psOld, out []float64) {
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

// driftOf returns max|a−b| over the rms of b: the distance between two runs
// of one field in units of the field's own size.
func driftOf(a, b []float64) float64 {
	var worst, sq float64
	for i := range b {
		worst = math.Max(worst, math.Abs(a[i]-b[i]))
		sq += b[i] * b[i]
	}
	if worst == 0 {
		return 0
	}
	return worst / math.Sqrt(sq/float64(len(b)))
}

// TestDycoreRegroupingDrift bounds what PR 24's operand regrouping did to
// the model's numbers. The live dycore and the parent's arithmetic start from
// the same state — seeded random states and the baroclinic-rest start — and
// may differ by rounding error only: 1e-12 of each field's rms after one
// model step (a wrong metric table or a dropped factor is off by 1e-3 or
// more), 1e-9 after 180 steps on the benchmark's mesh, where the flow's own
// error growth has had 3.75 simulated days to act (DESIGN.md "Operand
// grouping, re-baselined at PR 24" has the measured values; -v prints them).
// The third part checks the regrouped continuity and transport against
// conservation laws rather than against the twin: over one tracer window
// with the edge-total continuity, Σ area·ps, Σ M·θ and Σ M·qv move by less
// than 1e-13 relative.
func TestDycoreRegroupingDrift(t *testing.T) {
	type field struct {
		name string
		of   func(m *Model) []float64
	}
	fields := []field{
		{"Ps", func(m *Model) []float64 { return m.Ps }},
		{"T", func(m *Model) []float64 { return m.T }},
		{"U", func(m *Model) []float64 { return m.U }},
		{"Qv", func(m *Model) []float64 { return m.Qv }},
		{"flux.edge", func(m *Model) []float64 { return m.flux.edge }},
	}
	// run steps a live model and its parent-arithmetic twin side by side and
	// checks every field's drift against the budget.
	run := func(t *testing.T, level, nlev int, seed int64, steps int, budget float64) {
		t.Helper()
		live, parent, err := modelPair(level, nlev, pp.Serial{}, seed)
		if err != nil {
			t.Fatal(err)
		}
		twin := newParentStepper(parent)
		for i := 0; i < steps; i++ {
			live.StepModel()
			twin.stepModel()
		}
		for _, f := range fields {
			d := driftOf(f.of(live), f.of(twin.m))
			t.Logf("%-9s max|Δ|/rms = %.2e after %d model steps (budget %.0e)", f.name, d, steps, budget)
			if !(d <= budget) {
				t.Errorf("%s drifted %.3e of its rms from the parent's arithmetic in %d model steps, budget %.0e",
					f.name, d, steps, budget)
			}
		}
	}

	for seed := int64(0); seed < 4; seed++ {
		for _, nlev := range []int{7, 8} {
			t.Run(fmt.Sprintf("step1/nlev%d/seed%d", nlev, seed), func(t *testing.T) {
				run(t, 2, nlev, seed, 1, 1e-12)
			})
		}
	}
	t.Run("step180", func(t *testing.T) {
		if testing.Short() {
			t.Skip("180 model steps of two level-3 models")
		}
		run(t, 3, 8, 0, 180, 1e-9)
	})

	t.Run("conservation", func(t *testing.T) {
		for seed := int64(1); seed < 4; seed++ {
			cfg := DefaultConfig()
			cfg.PhysicsEvery = 1 << 30 // physics never fires
			m, err := New(3, 8, cfg, pp.Serial{})
			if err != nil {
				t.Fatal(err)
			}
			perturb(m, seed)
			mass0, theta0, qv0 := totalMass(m), massWeightedTheta(m), m.TotalMoistureLocal()
			for i := 0; i < cfg.TracerEvery; i++ {
				m.Step()
			}
			for _, q := range []struct {
				name        string
				before, now float64
			}{
				{"Σ area·ps", mass0, totalMass(m)},
				{"Σ M·θ", theta0, massWeightedTheta(m)},
				{"Σ M·qv", qv0, m.TotalMoistureLocal()},
			} {
				rel := math.Abs(q.now-q.before) / math.Abs(q.before)
				t.Logf("seed %d: %s moved %.2e relative over one tracer window", seed, q.name, rel)
				if !(rel <= 1e-13) {
					t.Errorf("seed %d: %s moved %.3e relative over one tracer window, budget 1e-13", seed, q.name, rel)
				}
			}
		}
	})
}
