package ocean

import "math"

// Richardson-number-dependent vertical mixing — the stand-in for LICOM's
// canuto turbulence closure, which is the scheme the paper's §5.2.2
// non-ocean-point exclusion originally targeted at thread level before
// being extended to the whole component. The scheme is
// Pacanowski–Philander (1981): interface diffusivity rises steeply when the
// gradient Richardson number Ri = N²/S² drops (shear instability), and
// collapses to a small background value under stable stratification.
//
// The sweep runs column by column over wet points only — exactly the access
// pattern the compaction optimizes — and is exposed both as part of the
// tracer step (when enabled) and as a standalone kernel for the compaction
// benchmark.

// MixingConfig parameterizes the closure.
type MixingConfig struct {
	KV0        float64 // maximum shear-driven diffusivity, m²/s
	Alpha      float64 // Ri response steepness (PP81: 5)
	Background float64 // floor diffusivity, m²/s
	NExp       int     // momentum exponent (PP81: viscosity uses (1+αRi)^-2)
}

// DefaultMixing returns the PP81 constants.
func DefaultMixing() MixingConfig {
	return MixingConfig{KV0: 1e-2, Alpha: 5, Background: 1e-5, NExp: 2}
}

// RichardsonNumber computes the gradient Richardson number at the interface
// between levels k-1 and k of one wet column (local index c). Returns +Inf
// for zero shear (fully stable).
func (o *Ocean) RichardsonNumber(c, k int) float64 {
	n2 := o.LNI * o.LNJ
	dzw := 0.5 * (o.dz[k-1] + o.dz[k])
	// Buoyancy frequency² from the density difference across the interface.
	rhoUp := Rho(o.T[(k-1)*n2+c], o.S[(k-1)*n2+c])
	rhoDn := Rho(o.T[k*n2+c], o.S[k*n2+c])
	bvf := Gravity / Rho0 * (rhoDn - rhoUp) / dzw // N² > 0 when stable

	// Velocity shear² at the cell from the two face velocities.
	du := (o.U[(k-1)*n2+c] - o.U[k*n2+c]) / dzw
	dv := (o.V[(k-1)*n2+c] - o.V[k*n2+c]) / dzw
	s2 := du*du + dv*dv
	if s2 == 0 {
		return math.Inf(1)
	}
	return bvf / s2
}

// InterfaceDiffusivity evaluates the PP81 diffusivity for a Richardson
// number.
func (mc MixingConfig) InterfaceDiffusivity(ri float64) float64 {
	if math.IsInf(ri, 1) {
		return mc.Background
	}
	if ri < 0 {
		// Convective instability: mix at the maximum rate.
		return mc.KV0 + mc.Background
	}
	f := 1 / (1 + mc.Alpha*ri)
	kv := mc.KV0
	for n := 0; n < mc.NExp; n++ {
		kv *= f
	}
	return kv + mc.Background
}

// ApplyRiMixing runs one explicit Richardson-mixing step on T and S over
// the owned wet columns. The explicit step is clipped to the diffusive
// stability limit per interface, and the flux form conserves tracer content
// exactly (the property the tests assert). Returns the number of columns
// processed (the compaction accounting).
func (o *Ocean) ApplyRiMixing(mc MixingConfig, dt float64) int {
	n2 := o.LNI * o.LNJ
	cols := 0
	for lj := 0; lj < o.B.NJ; lj++ {
		for li := 0; li < o.B.NI; li++ {
			if o.kmt[o.idx2(li, lj)] >= 2 {
				cols++
			}
		}
	}
	o.Sp.ParallelFor(o.B.NJ, func(lj int) {
		for li := 0; li < o.B.NI; li++ {
			c := o.idx2(li, lj)
			kmt := o.kmt[c]
			if kmt < 2 {
				continue
			}
			for _, tr := range [][]float64{o.T, o.S} {
				// Interface fluxes first (so the update is conservative).
				fluxes := make([]float64, kmt-1)
				for k := 1; k < kmt; k++ {
					dzw := 0.5 * (o.dz[k-1] + o.dz[k])
					kv := mc.InterfaceDiffusivity(o.RichardsonNumber(c, k))
					// Explicit stability clip: kv·dt/dzw² ≤ 0.45.
					if lim := 0.45 * dzw * dzw / dt; kv > lim {
						kv = lim
					}
					fluxes[k-1] = kv * (tr[(k-1)*n2+c] - tr[k*n2+c]) / dzw // downward flux
				}
				for k := 0; k < kmt; k++ {
					var div float64
					if k > 0 {
						div += fluxes[k-1]
					}
					if k < kmt-1 {
						div -= fluxes[k]
					}
					tr[k*n2+c] += dt * div / o.dz[k]
				}
			}
		}
	})
	return cols
}
