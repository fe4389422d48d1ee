package ocean

import (
	"math"

	"repro/internal/grid"
)

// HeatContentLocal returns this rank's contribution to the ocean heat
// content, ρ₀·c_p·Σ T·vol over owned wet cells (J). No reduction: the budget
// ledger batches the cross-rank sum with its other terms in one collective.
func (o *Ocean) HeatContentLocal() float64 {
	n2 := o.LNI * o.LNJ
	var local float64
	for lj := 0; lj < o.B.NJ; lj++ {
		jg := o.B.J0 + lj
		area := o.G.DX[jg] * o.G.DY
		for li := 0; li < o.B.NI; li++ {
			c := o.idx2(li, lj)
			for k := 0; k < o.kmt[c]; k++ {
				local += o.T[k*n2+c] * area * o.dz[k]
			}
		}
	}
	return Rho0 * Cp * local
}

// SaltContentLocal returns this rank's contribution to the total salt mass,
// ρ₀·Σ S·vol/1000 over owned wet cells (kg; S in psu = g/kg). Unreduced,
// like HeatContentLocal.
func (o *Ocean) SaltContentLocal() float64 {
	n2 := o.LNI * o.LNJ
	var local float64
	for lj := 0; lj < o.B.NJ; lj++ {
		jg := o.B.J0 + lj
		area := o.G.DX[jg] * o.G.DY
		for li := 0; li < o.B.NI; li++ {
			c := o.idx2(li, lj)
			for k := 0; k < o.kmt[c]; k++ {
				local += o.S[k*n2+c] * area * o.dz[k]
			}
		}
	}
	return Rho0 * local / 1000
}

// MeanSSH returns the area-weighted global mean sea surface height over wet
// cells. Volume conservation of the barotropic solver keeps it near its
// initial value.
func (o *Ocean) MeanSSH() float64 {
	var num, den float64
	for lj := 0; lj < o.B.NJ; lj++ {
		jg := o.B.J0 + lj
		area := o.G.DX[jg] * o.G.DY
		for li := 0; li < o.B.NI; li++ {
			c := o.idx2(li, lj)
			if !o.maskT[c] {
				continue
			}
			num += o.Eta[c] * area
			den += area
		}
	}
	num = o.B.AllreduceSum(num)
	den = o.B.AllreduceSum(den)
	if den == 0 {
		return 0
	}
	return num / den
}

// SurfaceKineticEnergy returns the global mean surface kinetic energy
// ½(u²+v²) over wet cells — the quantity mapped in Fig 1a/1c.
func (o *Ocean) SurfaceKineticEnergy() float64 {
	var num, den float64
	for lj := 0; lj < o.B.NJ; lj++ {
		jg := o.B.J0 + lj
		area := o.G.DX[jg] * o.G.DY
		for li := 0; li < o.B.NI; li++ {
			c := o.idx2(li, lj)
			if !o.maskT[c] {
				continue
			}
			u := 0.5 * (o.U[c] + o.U[c-1])
			v := 0.5 * (o.V[c] + o.V[c-o.LNI])
			num += 0.5 * (u*u + v*v) * area
			den += area
		}
	}
	num = o.B.AllreduceSum(num)
	den = o.B.AllreduceSum(den)
	if den == 0 {
		return 0
	}
	return num / den
}

// MaxSurfaceSpeed returns the global maximum surface current speed.
func (o *Ocean) MaxSurfaceSpeed() float64 {
	local := 0.0
	for lj := 0; lj < o.B.NJ; lj++ {
		for li := 0; li < o.B.NI; li++ {
			c := o.idx2(li, lj)
			if !o.maskT[c] {
				continue
			}
			u := 0.5 * (o.U[c] + o.U[c-1])
			v := 0.5 * (o.V[c] + o.V[c-o.LNI])
			if s := math.Hypot(u, v); s > local {
				local = s
			}
		}
	}
	return o.B.AllreduceMax(local)
}

// SurfaceRossby computes the local sea-surface Rossby number field
// ζ/f — relative vorticity normalized by the Coriolis parameter — the
// typhoon-response diagnostic of Fig 6c/6d. Land and near-equator cells
// (|f| below threshold) hold zero. The returned slice covers the owned
// region in row-major order (NJ × NI).
func (o *Ocean) SurfaceRossby() []float64 {
	n2 := o.LNI * o.LNJ
	o.B.ExchangeFields([]grid.HaloField{
		{Data: o.U[:n2], NLev: 1, Vec: true},
		{Data: o.V[:n2], NLev: 1, Vec: true},
	})
	out := make([]float64, o.B.NJ*o.B.NI)
	const fMin = 1e-5
	for lj := 0; lj < o.B.NJ; lj++ {
		jg := o.B.J0 + lj
		f := o.G.Coriolis(jg)
		if math.Abs(f) < fMin {
			continue
		}
		dxT := o.G.DX[jg]
		for li := 0; li < o.B.NI; li++ {
			c := o.idx2(li, lj)
			if !o.maskT[c] {
				continue
			}
			zeta := (o.V[c] - o.V[c-1]) / dxT
			zeta -= (o.U[c] - o.U[c-o.LNI]) / o.G.DY
			out[lj*o.B.NI+li] = zeta / f
		}
	}
	return out
}
