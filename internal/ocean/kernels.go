package ocean

import (
	"repro/internal/grid"
	"repro/internal/pp"
)

// This file is the ocean's half of the registered kernel layer: the five
// hot row kernels (baroclinic momentum, barotropic continuity and momentum,
// split correction, tracer advection–diffusion) live here as free kernel
// bodies over explicit argument bundles, registered in pp.Kernels and
// launched by the thin drivers in step.go (DESIGN.md "Registered kernels").

// Registered kernel hashes, one registration per process.
var (
	hOcnMomentum   = pp.Kernels.MustRegister("ocn.momentum", momentumKernel)
	hOcnContinuity = pp.Kernels.MustRegister("ocn.continuity", continuityKernel)
	hOcnBtMomentum = pp.Kernels.MustRegister("ocn.btmomentum", btMomentumKernel)
	hOcnSplit      = pp.Kernels.MustRegister("ocn.split", splitKernel)
	hOcnAdvect     = pp.Kernels.MustRegister("ocn.advect", advectKernel)
)

// kernGeom is the block geometry a row kernel needs, detached from the
// Ocean struct so kernel bodies depend only on their argument bundle.
type kernGeom struct {
	LNI, LNJ int // local extents including halo
	NI, NJ   int // owned extents
	NL       int // vertical levels
	H        int // halo width
	J0       int // global row of owned row 0
	NY       int // global rows
	n2       int // LNI*LNJ, the level stride
	kTop     int // levels any owned column reaches: the deepest kmt
}

// idx2 is the local 2-D offset of owned cell (li, lj).
func (g *kernGeom) idx2(li, lj int) int { return (lj+g.H)*g.LNI + li + g.H }

// lap is the 5-point Laplacian at flat offset i3.
func lap(f []float64, i3, lni int, dx, dy float64) float64 {
	c := f[i3]
	lapx := (f[i3+1] - 2*c + f[i3-1]) / (dx * dx)
	lapy := (f[i3+lni] - 2*c + f[i3-lni]) / (dy * dy)
	return lapx + lapy
}

// faceDepth is the depth at a velocity face: the shallower neighbour.
func faceDepth(a, b float64) float64 {
	if a < b {
		return a
	}
	return b
}

func maxFloat(a, b float64) float64 {
	if a > b {
		return a
	}
	return b
}

// --- baroclinic momentum ---

// momentumArgs carries everything the baroclinic momentum kernel reads and
// writes — step parameters are explicit arguments, replacing the former
// struct-scratch side channel. Views bind the caller-owned 3-D state, which
// the kernel advances in place a level at a time through three
// surface-sized planes.
type momentumArgs struct {
	g   kernGeom
	kmt []int
	dz  []float64

	dt, dy, grav, ah, bdrag float64
	rhoDz0                  float64   // Rho0*dz[0]
	rhoDy                   float64   // Rho0*dy
	cor, corMid             []float64 // per global row: f, 0.5*(f+f_north)
	dx, rhoDx               []float64 // per global row: DX, Rho0*DX

	u, v            pp.View3  // state, read at level k and rewritten there
	t, s            []float64 // tracers, read by the pressure integral
	eta, tauX, tauY []float64

	// Surface-sized planes: the hydrostatic pressure integral through level
	// k, and level k's new U and V until every row of the level is done.
	pr, pu, pv []float64
	k          int // the level the row body updates

	rowF func(lj int) // bound once; launched via s.ParallelFor
}

func (a *momentumArgs) bind(u, v, t, s, eta, tauX, tauY, pr, pu, pv []float64) {
	g := &a.g
	a.u = pp.BindView3("ocn.u", u, g.NL, g.LNJ, g.LNI)
	a.v = pp.BindView3("ocn.v", v, g.NL, g.LNJ, g.LNI)
	a.t, a.s = t, s
	a.eta, a.tauX, a.tauY = eta, tauX, tauY
	a.pr, a.pu, a.pv = pr, pu, pv
}

// addPressure adds level k's layer to the hydrostatic integral of every wet
// local cell, halos included, so pr holds each column's sum through level
// k, added top-down. The row body reads pr only at wet faces, i.e. where
// both adjacent columns reach level k, and those entries are current.
func (a *momentumArgs) addPressure(k int) {
	g := &a.g
	off := k * g.n2
	dzk := a.dz[k]
	for c, kc := range a.kmt {
		if kc > k {
			a.pr[c] += a.grav * Rho(a.t[off+c], a.s[off+c]) * dzk
		}
	}
}

// row updates level a.k of one owned row into the planes pu and pv, which it
// first fills with the row's current values so dry faces keep theirs. It
// reads only level k of U, V and the pressure, so no row reads another's
// output. U- and V-face updates write disjoint outputs from pure inputs, so
// the per-level order is bit-identical to a per-column one.
func (a *momentumArgs) row(lj int) {
	g := &a.g
	k := a.k
	off := k * g.n2
	rs := (lj + g.H) * g.LNI
	copy(a.pu[rs:rs+g.LNI], a.u.Data[off+rs:off+rs+g.LNI])
	copy(a.pv[rs:rs+g.LNI], a.v.Data[off+rs:off+rs+g.LNI])
	jg := g.J0 + lj
	f := a.cor[jg]
	fm := a.corMid[jg]
	dxT := a.dx[jg]
	rhoDx := a.rhoDx[jg]
	vWetRow := jg != g.NY-1
	for c := rs + g.H; c < rs+g.H+g.NI; c++ {
		kc := a.kmt[c]
		if kc <= k {
			continue
		}
		if kU := minInt(kc, a.kmt[c+1]); kU > k {
			a.uFace(c, k, kU, f, dxT, rhoDx)
		}
		if kV := minInt(kc, a.kmt[c+g.LNI]); vWetRow && kV > k {
			a.vFace(c, k, kV, dxT, fm)
		}
	}
}

// uFace updates the U point east of cell c at level k (k < kU, the wet
// range) into pu. Arithmetic is the exact transcription of the scalar
// original.
func (a *momentumArgs) uFace(c, k, kU int, f, dxT, rhoDx float64) {
	g := &a.g
	u, v := a.u.Data, a.v.Data
	e := c + 1
	i3 := k*g.n2 + c
	vav := 0.25 * (v[i3] + v[i3+1] + v[i3-g.LNI] + v[i3-g.LNI+1])
	du := f * vav
	du -= a.grav * (a.eta[e] - a.eta[c]) / dxT
	du -= (a.pr[e] - a.pr[c]) / rhoDx
	du += a.ah * lap(u, i3, g.LNI, dxT, a.dy)
	if k == 0 {
		tau := 0.5 * (a.tauX[c] + a.tauX[e])
		du += tau / a.rhoDz0
	}
	if k == kU-1 {
		du -= a.bdrag * u[i3]
	}
	a.pu[c] = u[i3] + a.dt*du
}

// vFace updates the V point north of cell c at level k (k < kV) into pv.
func (a *momentumArgs) vFace(c, k, kV int, dxT, fm float64) {
	g := &a.g
	u, v := a.u.Data, a.v.Data
	n := c + g.LNI
	i3 := k*g.n2 + c
	uav := 0.25 * (u[i3] + u[i3-1] + u[i3+g.LNI] + u[i3+g.LNI-1])
	dv := -fm * uav
	dv -= a.grav * (a.eta[n] - a.eta[c]) / a.dy
	dv -= (a.pr[n] - a.pr[c]) / a.rhoDy
	dv += a.ah * lap(v, i3, g.LNI, dxT, a.dy)
	if k == 0 {
		tau := 0.5 * (a.tauY[c] + a.tauY[n])
		dv += tau / a.rhoDz0
	}
	if k == kV-1 {
		dv -= a.bdrag * v[i3]
	}
	a.pv[c] = v[i3] + a.dt*dv
}

// momentumKernel advances U and V in place, top level first. Level k's
// pressure is added to the integral, every owned row computes its new U and
// V into the planes from the old level k, and only then are the owned rows
// written back: the next level reads none of them.
func momentumKernel(s pp.Space, args any) {
	a, ok := args.(*momentumArgs)
	if !ok {
		panic("ocean: momentum kernel launched with foreign args")
	}
	g := &a.g
	lo, hi := g.H*g.LNI, (g.H+g.NJ)*g.LNI
	clear(a.pr)
	for k := 0; k < g.kTop; k++ {
		a.k = k
		a.addPressure(k)
		s.ParallelFor(g.NJ, a.rowF)
		off := k * g.n2
		copy(a.u.Data[off+lo:off+hi], a.pu[lo:hi])
		copy(a.v.Data[off+lo:off+hi], a.pv[lo:hi])
	}
}

// --- barotropic continuity ---

type continuityArgs struct {
	g     kernGeom
	kmt   []int
	maskT []bool

	dtb, dy     float64
	dx, dxSouth []float64 // per global row: DX[jg], DX at jg-1 (clamped)

	depth           []float64
	eta, ubar, vbar []float64

	rowF func(lj int)
}

func (a *continuityArgs) bind(eta, ubar, vbar []float64) {
	a.eta, a.ubar, a.vbar = eta, ubar, vbar
}

func (a *continuityArgs) row(lj int) {
	g := &a.g
	jg := g.J0 + lj
	dxT := a.dx[jg]
	dxS := a.dxSouth[jg]
	vWetRow := jg != g.NY-1
	southOpen := jg != 0
	for li := 0; li < g.NI; li++ {
		c := g.idx2(li, lj)
		if !a.maskT[c] {
			continue
		}
		e, w, n, sIdx := c+1, c-1, c+g.LNI, c-g.LNI
		he := faceDepth(a.depth[c], a.depth[e])
		hw := faceDepth(a.depth[w], a.depth[c])
		hn := faceDepth(a.depth[c], a.depth[n])
		hs := faceDepth(a.depth[sIdx], a.depth[c])
		fe := a.ubar[c] * he * a.dy
		fw := a.ubar[w] * hw * a.dy
		fn := 0.0
		if vWetRow && a.kmt[c] > 0 && a.kmt[n] > 0 {
			fn = a.vbar[c] * hn * dxT
		}
		fs := 0.0
		if southOpen {
			fs = a.vbar[sIdx] * hs * dxS
		}
		area := dxT * a.dy
		a.eta[c] -= a.dtb * (fe - fw + fn - fs) / area
	}
}

func continuityKernel(s pp.Space, args any) {
	a, ok := args.(*continuityArgs)
	if !ok {
		panic("ocean: continuity kernel launched with foreign args")
	}
	s.ParallelFor(a.g.NJ, a.rowF)
}

// --- barotropic momentum ---

type btMomentumArgs struct {
	g     kernGeom
	kmt   []int
	maskT []bool

	dtb, dy, grav, bdrag, rho0 float64
	cor, dx                    []float64

	depth                                         []float64
	eta, ubar, vbar, newUbar, newVbar, tauX, tauY []float64

	rowF func(lj int)
}

func (a *btMomentumArgs) bind(eta, ubar, vbar, newUbar, newVbar, tauX, tauY []float64) {
	a.eta, a.ubar, a.vbar = eta, ubar, vbar
	a.newUbar, a.newVbar = newUbar, newVbar
	a.tauX, a.tauY = tauX, tauY
}

func (a *btMomentumArgs) row(lj int) {
	g := &a.g
	jg := g.J0 + lj
	f := a.cor[jg]
	dxT := a.dx[jg]
	vWetRow := jg != g.NY-1
	for li := 0; li < g.NI; li++ {
		c := g.idx2(li, lj)
		if !a.maskT[c] {
			continue
		}
		e, w, n, sIdx := c+1, c-1, c+g.LNI, c-g.LNI
		he := faceDepth(a.depth[c], a.depth[e])
		hn := faceDepth(a.depth[c], a.depth[n])
		if a.kmt[c] > 0 && a.kmt[e] > 0 { // faceWetU at the surface
			vav := 0.25 * (a.vbar[c] + a.vbar[e] + a.vbar[sIdx] + a.vbar[sIdx+1])
			du := f*vav - a.grav*(a.eta[e]-a.eta[c])/dxT
			du += 0.5 * (a.tauX[c] + a.tauX[e]) / (a.rho0 * maxFloat(he, 1))
			du -= a.bdrag * a.ubar[c]
			a.newUbar[c] = a.ubar[c] + a.dtb*du
		}
		if vWetRow && a.kmt[c] > 0 && a.kmt[n] > 0 { // faceWetV at the surface
			uav := 0.25 * (a.ubar[c] + a.ubar[w] + a.ubar[n] + a.ubar[n-1])
			dv := -f*uav - a.grav*(a.eta[n]-a.eta[c])/a.dy
			dv += 0.5 * (a.tauY[c] + a.tauY[n]) / (a.rho0 * maxFloat(hn, 1))
			dv -= a.bdrag * a.vbar[c]
			a.newVbar[c] = a.vbar[c] + a.dtb*dv
		}
	}
}

func btMomentumKernel(s pp.Space, args any) {
	a, ok := args.(*btMomentumArgs)
	if !ok {
		panic("ocean: btmomentum kernel launched with foreign args")
	}
	s.ParallelFor(a.g.NJ, a.rowF)
}

// --- split correction ---

type splitArgs struct {
	g                kernGeom
	kmt              []int
	dz               []float64
	u, v, ubar, vbar []float64
	rowF             func(lj int)
}

func (a *splitArgs) row(lj int) {
	g := &a.g
	for li := 0; li < g.NI; li++ {
		c := g.idx2(li, lj)
		imposeMeanCol(a.u, a.ubar, a.dz, c, minInt(a.kmt[c], a.kmt[c+1]), g.n2)
		imposeMeanCol(a.v, a.vbar, a.dz, c, minInt(a.kmt[c], a.kmt[c+g.LNI]), g.n2)
	}
}

// imposeMeanCol shifts a velocity column so its depth mean equals the
// barotropic value.
func imposeMeanCol(f, bar, dz []float64, c, kmax, n2 int) {
	if kmax <= 0 {
		return
	}
	var sum, h float64
	for k := 0; k < kmax; k++ {
		sum += f[k*n2+c] * dz[k]
		h += dz[k]
	}
	shift := bar[c] - sum/h
	for k := 0; k < kmax; k++ {
		f[k*n2+c] += shift
	}
}

func splitKernel(s pp.Space, args any) {
	a, ok := args.(*splitArgs)
	if !ok {
		panic("ocean: split kernel launched with foreign args")
	}
	s.ParallelFor(a.g.NJ, a.rowF)
}

// --- tracer advection–diffusion ---

type advectArgs struct {
	g   kernGeom
	kmt []int

	dt          float64
	dy, kh, kv  float64
	dx, dxSouth []float64
	dz          []float64

	u, v []float64
	tr   []float64 // the tracer, advanced in place by the kernel

	// Surface forcing as an explicit field + denominator — the former
	// surf(c) closure evaluated QHeat[c]/(Rho0*Cp*dz0); the denominator is
	// constant per sweep, so passing it precomputed is bit-identical.
	surf    []float64
	surfDen float64

	// Surface-sized planes of the kernel's level pipeline: cur receives
	// level k, prev holds level k−1 until its last reader, level k, is done.
	cur, prev []float64
	k         int // the level the row body updates

	rowF func(lj int)
}

func (a *advectArgs) bind(tr, surf []float64, surfDen float64, u, v, cur, prev []float64) {
	a.tr, a.surf, a.surfDen = tr, surf, surfDen
	a.u, a.v, a.cur, a.prev = u, v, cur, prev
}

// row computes level a.k of one owned row into cur, then writes level k−1
// of the same row back from prev: level k reads level k−1 only in its own
// column, and level k−1's horizontal neighbours were all read by the pass
// that computed it.
func (a *advectArgs) row(lj int) {
	g := &a.g
	k := a.k
	rs := (lj+g.H)*g.LNI + g.H
	off := k * g.n2
	copy(a.cur[rs:rs+g.NI], a.tr[off+rs:off+rs+g.NI])
	jg := g.J0 + lj
	for c := rs; c < rs+g.NI; c++ {
		if a.kmt[c] > k {
			a.cur[c] = advectCell(a, k, c, jg)
		}
	}
	if k > 0 {
		copy(a.tr[off-g.n2+rs:off-g.n2+rs+g.NI], a.prev[rs:rs+g.NI])
	}
}

// advectCell returns the conservative advection–diffusion update of the
// tracer at level k of wet cell c (k < kmt[c]) in global row jg. It is the
// single source shared by the level-pipelined row kernel and the per-column
// sweeps (the full-grid one and the compacted wet-column one of §5.2.2),
// which must agree bit for bit. Fluxes are evaluated once per face from the
// cell pair it separates, so the sum of tracer content changes only through
// the (zero) boundary and the surface forcing — the conservation property
// the tests assert.
func advectCell(a *advectArgs, k, c, jg int) float64 {
	g := &a.g
	n2 := g.n2
	dxT := a.dx[jg]
	dy := a.dy
	dzk := a.dz[k]
	kc := a.kmt[c]
	tr := a.tr
	i3 := k*n2 + c
	vol := dxT * dy * dzk
	var div float64

	// East face flux (positive = out of this cell).
	if a.kmt[c+1] > k {
		div += faceFlux(a.u[i3], tr[i3], tr[i3+1], dy*dzk, a.kh, dxT)
	}
	// West face (owned by the western cell; recompute mirrored).
	if a.kmt[c-1] > k {
		div -= faceFlux(a.u[i3-1], tr[i3-1], tr[i3], dy*dzk, a.kh, dxT)
	}
	// North face (closed at the northern fold row).
	if jg != g.NY-1 && a.kmt[c+g.LNI] > k {
		div += faceFlux(a.v[i3], tr[i3], tr[i3+g.LNI], dxT*dzk, a.kh, dy)
	}
	// South face (closed at the southern wall).
	if jg != 0 && a.kmt[c-g.LNI] > k {
		div -= faceFlux(a.v[i3-g.LNI], tr[i3-g.LNI], tr[i3], a.dxSouth[jg]*dzk, a.kh, dy)
	}

	upd := tr[i3] - a.dt*div/vol

	// Explicit vertical diffusion in flux form: the flux through the
	// interface between levels k-1 and k uses the interface spacing, so
	// content moves between layers without loss.
	if k > 0 {
		dzw := 0.5 * (a.dz[k-1] + dzk)
		upd += a.dt * a.kv * (tr[i3-n2] - tr[i3]) / (dzw * dzk)
	}
	if k < kc-1 {
		dzw := 0.5 * (dzk + a.dz[k+1])
		upd += a.dt * a.kv * (tr[i3+n2] - tr[i3]) / (dzw * dzk)
	}
	if k == 0 {
		upd += a.dt * (a.surf[c] / a.surfDen)
	}
	return upd
}

// advectColumn writes the update of every active level of wet column c in
// global row jg into out — the per-column walk over advectCell.
func advectColumn(a *advectArgs, out []float64, c, jg int) {
	for k := 0; k < a.kmt[c]; k++ {
		out[k*a.g.n2+c] = advectCell(a, k, c, jg)
	}
}

// advectKernel advances the bound tracer in place, a level behind: pass k
// computes level k into one plane and writes level k−1 back from the
// other, and the deepest level is written back after the last pass.
func advectKernel(s pp.Space, args any) {
	a, ok := args.(*advectArgs)
	if !ok {
		panic("ocean: advect kernel launched with foreign args")
	}
	g := &a.g
	for k := 0; k < g.kTop; k++ {
		a.k = k
		s.ParallelFor(g.NJ, a.rowF)
		a.cur, a.prev = a.prev, a.cur
	}
	if g.kTop == 0 {
		return
	}
	off := (g.kTop - 1) * g.n2
	for lj := 0; lj < g.NJ; lj++ {
		rs := (lj+g.H)*g.LNI + g.H
		copy(a.tr[off+rs:off+rs+g.NI], a.prev[rs:rs+g.NI])
	}
}

// faceFlux returns the combined upwind-advective and diffusive tracer flux
// through one face: u·len·T_up − K·len·(T2−T1)/d.
func faceFlux(u, t1, t2, faceArea, kh, d float64) float64 {
	var adv float64
	if u >= 0 {
		adv = u * faceArea * t1
	} else {
		adv = u * faceArea * t2
	}
	return adv - kh*faceArea*(t2-t1)/d
}

// dxAt returns the zonal spacing at a (possibly out-of-range) global row:
// clamped at the southern boundary, reflected across the northern fold.
func dxAt(g *grid.Tripolar, j int) float64 {
	if j < 0 {
		j = 0
	}
	if j >= g.NY {
		j = 2*g.NY - 1 - j
	}
	return g.DX[j]
}

func minInt(a, b int) int {
	if a < b {
		return a
	}
	return b
}

// minIntCap clamps a to at most cap.
func minIntCap(a, cap int) int {
	if a > cap {
		return cap
	}
	return a
}
