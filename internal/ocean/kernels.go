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
}

// idx2 is the local 2-D offset of owned cell (li, lj).
func (g kernGeom) idx2(li, lj int) int { return (lj+g.H)*g.LNI + li + g.H }

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
// struct-scratch side channel. Views bind the caller-owned 3-D state.
type momentumArgs struct {
	g   kernGeom
	kmt []int

	dt, dy, grav, ah, bdrag float64
	rhoDz0                  float64   // Rho0*dz[0]
	rhoDy                   float64   // Rho0*dy
	cor, corMid             []float64 // per global row: f, 0.5*(f+f_north)
	dx, rhoDx               []float64 // per global row: DX, Rho0*DX

	pr               []float64 // hydrostatic pressure integral
	u, v, newU, newV pp.View3
	eta, tauX, tauY  []float64

	rowF func(lj int) // bound once; launched via s.ParallelFor
}

func (a *momentumArgs) bind(u, v, newU, newV, eta, tauX, tauY, pr []float64) {
	g := a.g
	a.u = pp.BindView3("ocn.u", u, g.NL, g.LNJ, g.LNI)
	a.v = pp.BindView3("ocn.v", v, g.NL, g.LNJ, g.LNI)
	a.newU = pp.BindView3("ocn.newU", newU, g.NL, g.LNJ, g.LNI)
	a.newV = pp.BindView3("ocn.newV", newV, g.NL, g.LNJ, g.LNI)
	a.eta, a.tauX, a.tauY, a.pr = eta, tauX, tauY, pr
}

// row updates one owned row. The level loop is split per face — wetness is
// monotone in k (wet exactly for k < min(kmt) of the adjacent columns), so
// each face sweeps a branch-bounded range, unrolled 2-way. U- and V-face
// updates write disjoint outputs from pure inputs, so the face-major order
// is bit-identical to the original level-major order.
func (a *momentumArgs) row(lj int) {
	g := a.g
	u, v := a.u.Data, a.v.Data
	jg := g.J0 + lj
	f := a.cor[jg]
	fm := a.corMid[jg]
	dxT := a.dx[jg]
	rhoDx := a.rhoDx[jg]
	vWetRow := jg != g.NY-1
	for li := 0; li < g.NI; li++ {
		c := g.idx2(li, lj)
		e := c + 1
		n := c + g.LNI
		kc := a.kmt[c]
		if kU := minInt(kc, a.kmt[e]); kU > 0 {
			k := 0
			for ; k+1 < kU; k += 2 {
				a.uFace(u, c, e, k, kU, f, dxT, rhoDx)
				a.uFace(u, c, e, k+1, kU, f, dxT, rhoDx)
			}
			if k < kU {
				a.uFace(u, c, e, k, kU, f, dxT, rhoDx)
			}
		}
		if kV := minInt(kc, a.kmt[n]); vWetRow && kV > 0 {
			k := 0
			for ; k+1 < kV; k += 2 {
				a.vFace(v, c, n, k, kV, dxT, fm)
				a.vFace(v, c, n, k+1, kV, dxT, fm)
			}
			if k < kV {
				a.vFace(v, c, n, k, kV, dxT, fm)
			}
		}
	}
}

// uFace updates the U point east of cell c at level k (k < kU, the wet
// range). Arithmetic is the exact transcription of the scalar original.
func (a *momentumArgs) uFace(u []float64, c, e, k, kU int, f, dxT, rhoDx float64) {
	g := a.g
	v := a.v.Data
	i3 := k*g.n2 + c
	vav := 0.25 * (v[i3] + v[i3+1] + v[i3-g.LNI] + v[i3-g.LNI+1])
	du := f * vav
	du -= a.grav * (a.eta[e] - a.eta[c]) / dxT
	du -= (a.pr[k*g.n2+e] - a.pr[k*g.n2+c]) / rhoDx
	du += a.ah * lap(u, i3, g.LNI, dxT, a.dy)
	if k == 0 {
		tau := 0.5 * (a.tauX[c] + a.tauX[e])
		du += tau / a.rhoDz0
	}
	if k == kU-1 {
		du -= a.bdrag * u[i3]
	}
	a.newU.Data[i3] = u[i3] + a.dt*du
}

// vFace updates the V point north of cell c at level k (k < kV).
func (a *momentumArgs) vFace(v []float64, c, n, k, kV int, dxT, fm float64) {
	g := a.g
	u := a.u.Data
	i3 := k*g.n2 + c
	uav := 0.25 * (u[i3] + u[i3-1] + u[k*g.n2+n] + u[k*g.n2+n-1])
	dv := -fm * uav
	dv -= a.grav * (a.eta[n] - a.eta[c]) / a.dy
	dv -= (a.pr[k*g.n2+n] - a.pr[k*g.n2+c]) / a.rhoDy
	dv += a.ah * lap(v, i3, g.LNI, dxT, a.dy)
	if k == 0 {
		tau := 0.5 * (a.tauY[c] + a.tauY[n])
		dv += tau / a.rhoDz0
	}
	if k == kV-1 {
		dv -= a.bdrag * v[i3]
	}
	a.newV.Data[i3] = v[i3] + a.dt*dv
}

func momentumKernel(s pp.Space, args any) {
	a, ok := args.(*momentumArgs)
	if !ok {
		panic("ocean: momentum kernel launched with foreign args")
	}
	s.ParallelFor(a.g.NJ, a.rowF)
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
	g := a.g
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
	g := a.g
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
	g := a.g
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
	g     kernGeom
	kmt   []int
	maskT []bool

	dt          float64
	dy, kh, kv  float64
	dx, dxSouth []float64
	dz          []float64

	u, v    []float64
	tr, out []float64

	// Surface forcing as an explicit field + denominator — the former
	// surf(c) closure evaluated QHeat[c]/(Rho0*Cp*dz0); the denominator is
	// constant per sweep, so passing it precomputed is bit-identical.
	surf    []float64
	surfDen float64

	rowF func(lj int)
}

func (a *advectArgs) row(lj int) {
	g := a.g
	for li := 0; li < g.NI; li++ {
		if a.maskT[g.idx2(li, lj)] {
			advectColumn(a, li, lj)
		}
	}
}

// advectColumn applies the conservative advection–diffusion update to every
// active level of one wet column. It is the single source shared by the
// full-grid row kernel and the compacted wet-column sweep (§5.2.2), which
// must agree bit for bit.
func advectColumn(a *advectArgs, li, lj int) {
	g := a.g
	n2 := g.n2
	jg := g.J0 + lj
	dxT := a.dx[jg]
	dy := a.dy
	area := dxT * dy
	c := g.idx2(li, lj)
	kc := a.kmt[c]
	tr := a.tr
	vWetRow := jg != g.NY-1
	for k := 0; k < kc; k++ {
		i3 := k*n2 + c
		vol := area * a.dz[k]
		var div float64

		// East face flux (positive = out of this cell).
		if kc > k && a.kmt[c+1] > k {
			div += faceFlux(a.u[i3], tr[i3], tr[i3+1], dy*a.dz[k], a.kh, dxT)
		}
		// West face (owned by the western cell; recompute mirrored).
		if a.kmt[c-1] > k && kc > k {
			div -= faceFlux(a.u[i3-1], tr[i3-1], tr[i3], dy*a.dz[k], a.kh, dxT)
		}
		// North face.
		if vWetRow && kc > k && a.kmt[c+g.LNI] > k {
			div += faceFlux(a.v[i3], tr[i3], tr[i3+g.LNI], dxT*a.dz[k], a.kh, dy)
		}
		// South face (closed at the southern wall).
		if jg != 0 && a.kmt[c-g.LNI] > k && kc > k {
			div -= faceFlux(a.v[i3-g.LNI], tr[i3-g.LNI], tr[i3], a.dxSouth[jg]*a.dz[k], a.kh, dy)
		}

		upd := tr[i3] - a.dt*div/vol

		// Explicit vertical diffusion in flux form: the flux through
		// the interface between levels k-1 and k uses the interface
		// spacing, so content moves between layers without loss.
		if k > 0 {
			dzw := 0.5 * (a.dz[k-1] + a.dz[k])
			upd += a.dt * a.kv * (tr[i3-n2] - tr[i3]) / (dzw * a.dz[k])
		}
		if k < kc-1 {
			dzw := 0.5 * (a.dz[k] + a.dz[k+1])
			upd += a.dt * a.kv * (tr[i3+n2] - tr[i3]) / (dzw * a.dz[k])
		}
		if k == 0 {
			upd += a.dt * (a.surf[c] / a.surfDen)
		}
		a.out[i3] = upd
	}
}

func advectKernel(s pp.Space, args any) {
	a, ok := args.(*advectArgs)
	if !ok {
		panic("ocean: advect kernel launched with foreign args")
	}
	s.ParallelFor(a.g.NJ, a.rowF)
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
