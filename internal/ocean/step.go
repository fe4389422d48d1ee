package ocean

import (
	"repro/internal/grid"
	"repro/internal/pp"
	"repro/internal/precision"
)

// Step advances the ocean one baroclinic step: (1) 3-D baroclinic momentum,
// (2) fast barotropic subcycle updating SSH and the depth-mean flow,
// (3) conservative tracer transport, (4) optional FP32 group quantization
// under the mixed-precision policy.
//
// The numerics live in kernels.go as registered pp kernels; Step and its
// phase drivers only bind views, run halo exchanges, and launch. U, V, T and
// S are advanced in their own arrays, a level at a time through
// surface-sized planes, so a slice taken of them before a step (the sea
// ice's SST) stays the state after it.
//
// After the first call warms the persistent scratch buffers, Step performs
// zero heap allocations in the default (FP64, no Ri mixing) configuration
// on a single-rank block — the steady-state property the allocation
// regression test pins.
func (o *Ocean) Step() {
	dt := o.Cfg.DtBaroclinic
	o.baroclinicMomentum(dt)
	o.barotropicCycle(dt)
	o.tracerStep(dt)
	if o.Cfg.RiMixing {
		o.ApplyRiMixing(o.Cfg.Mixing, dt)
	}
	if o.Cfg.Policy == precision.Mixed {
		// §5.2.3: dynamical-core state is stored through group-scaled FP32;
		// accumulations above stayed FP64.
		for _, f := range [][]float64{o.U, o.V, o.T, o.S, o.Eta} {
			if err := precision.QuantizeInPlace(f, o.Cfg.PrecisionGroup); err != nil {
				// Unreachable: the only error is a non-positive group, which
				// New rejects for a Mixed-policy ocean.
				panic(err)
			}
		}
	}
	o.steps++
}

// scrEnsure builds the persistent scratch and the bound kernel argument
// bundles once. Per-step parameters are plain fields on the bundles, set by
// the drivers before each launch — explicit arguments, not a side channel
// threaded through the Ocean struct.
func (o *Ocean) scrEnsure() *stepScratch {
	if o.scr != nil {
		return o.scr
	}
	n2 := o.LNI * o.LNJ
	s := &stepScratch{
		pr:   make([]float64, n2),
		ubar: make([]float64, n2),
		vbar: make([]float64, n2),
	}
	geo := kernGeom{
		LNI: o.LNI, LNJ: o.LNJ,
		NI: o.B.NI, NJ: o.B.NJ,
		NL: o.NL, H: o.B.H, J0: o.B.J0, NY: o.G.NY,
		n2: n2,
	}
	for lj := 0; lj < o.B.NJ; lj++ {
		for li := 0; li < o.B.NI; li++ {
			geo.kTop = max(geo.kTop, o.kmt[o.idx2(li, lj)])
		}
	}
	// Per-global-row geometry, precomputed with the same float64 operations
	// the scalar kernels performed inline, so reading the tables back is
	// bit-identical.
	cor := make([]float64, o.G.NY)
	corMid := make([]float64, o.G.NY)
	rhoDx := make([]float64, o.G.NY)
	dxSouth := make([]float64, o.G.NY)
	for j := 0; j < o.G.NY; j++ {
		cor[j] = o.G.Coriolis(j)
		corMid[j] = 0.5 * (cor[j] + o.G.Coriolis(minIntCap(j+1, o.G.NY-1)))
		rhoDx[j] = Rho0 * o.G.DX[j]
		dxSouth[j] = dxAt(o.G, j-1)
	}

	s.mom = &momentumArgs{
		g: geo, kmt: o.kmt, dz: o.dz,
		dy: o.G.DY, grav: Gravity, ah: o.Cfg.AH, bdrag: o.Cfg.BottomDrag,
		rhoDz0: Rho0 * o.dz[0], rhoDy: Rho0 * o.G.DY,
		cor: cor, corMid: corMid, dx: o.G.DX, rhoDx: rhoDx,
	}
	s.mom.rowF = s.mom.row
	s.cont = &continuityArgs{
		g: geo, kmt: o.kmt, maskT: o.maskT,
		dy: o.G.DY, dx: o.G.DX, dxSouth: dxSouth, depth: o.depth,
	}
	s.cont.rowF = s.cont.row
	s.bt = &btMomentumArgs{
		g: geo, kmt: o.kmt, maskT: o.maskT,
		dy: o.G.DY, grav: Gravity, bdrag: o.Cfg.BottomDrag, rho0: Rho0,
		cor: cor, dx: o.G.DX, depth: o.depth,
	}
	s.bt.rowF = s.bt.row
	s.split = &splitArgs{
		g: geo, kmt: o.kmt, dz: o.dz,
		u: nil, v: nil, ubar: nil, vbar: nil,
	}
	s.split.rowF = s.split.row
	s.adv = &advectArgs{
		g: geo, kmt: o.kmt,
		dy: o.G.DY, kh: o.Cfg.KH, kv: o.Cfg.KV,
		dx: o.G.DX, dxSouth: dxSouth, dz: o.dz,
	}
	s.adv.rowF = s.adv.row

	o.scr = s
	return s
}

// baroclinicMomentum applies Coriolis, surface-slope and baroclinic
// pressure gradients, wind stress, Laplacian viscosity, and bottom drag to
// the 3-D velocity, in place. Its two level planes borrow the barotropic
// buffers ubar/vbar, which barotropicCycle fills before it reads them.
func (o *Ocean) baroclinicMomentum(dt float64) {
	s := o.scrEnsure()
	// One batched exchange for the whole baroclinic state: the pressure
	// integral reads T/S in every halo cell a wet face touches, and wind
	// stress is face-averaged, so its halo must be current; it changes every
	// coupling interval through Import.
	s.ex = append(s.ex[:0],
		grid.HaloField{Data: o.T, NLev: o.NL},
		grid.HaloField{Data: o.S, NLev: o.NL},
		grid.HaloField{Data: o.U, NLev: o.NL, Vec: true},
		grid.HaloField{Data: o.V, NLev: o.NL, Vec: true},
		grid.HaloField{Data: o.Eta, NLev: 1},
		grid.HaloField{Data: o.TauX, NLev: 1, Vec: true},
		grid.HaloField{Data: o.TauY, NLev: 1, Vec: true},
	)
	o.B.ExchangeFields(s.ex)
	a := s.mom
	a.dt = dt
	a.bind(o.U, o.V, o.T, o.S, o.Eta, o.TauX, o.TauY, s.pr, s.ubar, s.vbar)
	pp.Kernels.MustLaunch(hOcnMomentum, o.Sp, a)
}

// barotropicCycle subcycles the 2-D free-surface equations with the
// standard forward-backward scheme (continuity first, then momentum using
// the updated surface height — neutrally stable for the external gravity
// wave, unlike forward Euler), then replaces the depth-mean of the 3-D
// velocity with the barotropic solution (the split-explicit correction).
func (o *Ocean) barotropicCycle(dt float64) {
	s := o.scrEnsure()
	nsub := o.Cfg.NBarotropicSub
	dtb := dt / float64(nsub)

	for sub := 0; sub < nsub; sub++ {
		s.ex = append(s.ex[:0],
			grid.HaloField{Data: o.Ubar, NLev: 1, Vec: true},
			grid.HaloField{Data: o.Vbar, NLev: 1, Vec: true},
			grid.HaloField{Data: o.Eta, NLev: 1},
		)
		o.B.ExchangeFields(s.ex)

		// --- Continuity (forward): η from the current transports, in place ---
		c := s.cont
		c.dtb = dtb
		c.bind(o.Eta, o.Ubar, o.Vbar)
		pp.Kernels.MustLaunch(hOcnContinuity, o.Sp, c)
		o.B.ExchangeCells(o.Eta, 1)

		// --- Momentum (backward): transports from the new η ---
		copy(s.ubar, o.Ubar)
		copy(s.vbar, o.Vbar)
		b := s.bt
		b.dtb = dtb
		b.bind(o.Eta, o.Ubar, o.Vbar, s.ubar, s.vbar, o.TauX, o.TauY)
		pp.Kernels.MustLaunch(hOcnBtMomentum, o.Sp, b)
		o.Ubar, s.ubar = s.ubar, o.Ubar
		o.Vbar, s.vbar = s.vbar, o.Vbar
	}

	// Split correction: impose the barotropic depth-mean on the 3-D field.
	sp := s.split
	sp.u, sp.v, sp.ubar, sp.vbar = o.U, o.V, o.Ubar, o.Vbar
	pp.Kernels.MustLaunch(hOcnSplit, o.Sp, sp)
}

// tracerStep advances temperature and salinity with conservative upwind
// flux-form advection, Laplacian diffusion, explicit vertical diffusion,
// and the surface heat / freshwater forcing, each in place through two
// planes borrowed from the barotropic buffers. The flux-form update
// telescopes exactly, which is what keeps the 1e-10 conservation audit
// closed; under the -mixed policy it still runs in float64 on the quantized
// state.
func (o *Ocean) tracerStep(dt float64) {
	s := o.scrEnsure()
	s.ex = append(s.ex[:0],
		grid.HaloField{Data: o.T, NLev: o.NL},
		grid.HaloField{Data: o.S, NLev: o.NL},
		grid.HaloField{Data: o.U, NLev: o.NL, Vec: true},
		grid.HaloField{Data: o.V, NLev: o.NL, Vec: true},
	)
	o.B.ExchangeFields(s.ex)
	a := s.adv
	a.dt = dt
	a.bind(o.T, o.QHeat, o.surfTDen(), o.U, o.V, s.ubar, s.vbar)
	pp.Kernels.MustLaunch(hOcnAdvect, o.Sp, a)
	a.bind(o.S, o.FWFlux, 1, o.U, o.V, s.ubar, s.vbar)
	pp.Kernels.MustLaunch(hOcnAdvect, o.Sp, a)
}

// surfTDen is the denominator turning the surface heat flux (W/m²) into a
// temperature tendency for the top layer — the same float64 product the old
// surfaceTForcing closure evaluated per cell.
func (o *Ocean) surfTDen() float64 { return Rho0 * Cp * o.dz[0] }

// advectDiffuse computes one conservative tracer update of tr into a fresh
// slice (entries it does not update keep their input values), walking
// every owned wet column through the kernel's own per-cell body. It is the
// allocating form kept for the compact-sweep comparisons; the stepping hot
// path advances T and S in place. surf is the per-cell surface forcing
// field and surfDen its constant denominator (pass 1 for none).
func (o *Ocean) advectDiffuse(tr []float64, dt float64, surf []float64, surfDen float64) []float64 {
	out := make([]float64, len(tr))
	copy(out, tr)
	a := o.sweepArgs(tr, dt, surf, surfDen)
	o.Sp.ParallelFor(o.B.NJ, func(lj int) {
		for li := 0; li < o.B.NI; li++ {
			advectColumn(&a, out, o.idx2(li, lj), o.B.J0+lj)
		}
	})
	return out
}

// sweepArgs returns a private copy of the bound tracer bundle set up for a
// per-column sweep of tr: the sweep must not race the stepping hot path's
// argument state.
func (o *Ocean) sweepArgs(tr []float64, dt float64, surf []float64, surfDen float64) advectArgs {
	a := *o.scrEnsure().adv
	a.dt = dt
	a.bind(tr, surf, surfDen, o.U, o.V, nil, nil)
	return a
}
