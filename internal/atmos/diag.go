package atmos

import (
	"math"

	"repro/internal/grid"
)

// MaxWind returns the largest reconstructed wind speed at any cell on any
// level (m/s) — the stability canary.
func (m *Model) MaxWind() float64 {
	var worst float64
	for c := 0; c < m.Mesh.NCells(); c++ {
		if s := m.columnMaxWind(c); s > worst {
			worst = s
		}
	}
	return worst
}

// columnMaxWind returns the largest reconstructed wind speed on any level of
// cell c.
func (m *Model) columnMaxWind(c int) float64 {
	var worst float64
	for k := 0; k < m.NLev; k++ {
		u, v := m.recon.CellUV(m.U, m.NLev, k, c)
		if s := math.Hypot(u, v); s > worst {
			worst = s
		}
	}
	return worst
}

// Wind10m returns the lowest-level zonal and meridional wind at every cell,
// the paper's 10 m wind diagnostic (Fig 6a/6b).
func (m *Model) Wind10m() (u, v []float64) {
	nc := m.Mesh.NCells()
	u = make([]float64, nc)
	v = make([]float64, nc)
	m.Wind10mInto(u, v)
	return u, v
}

// Wind10mInto fills caller-owned buffers with the lowest-level wind — the
// allocation-free form the coupler's hot path uses. Decomposed, it fills the
// patch (owned + halo), whose edges are all locally valid; everything the
// surface-flux and coupling loops read lies inside it.
func (m *Model) Wind10mInto(u, v []float64) {
	nlev := m.NLev
	for c := 0; c < m.Mesh.NCells(); c++ {
		u[c], v[c] = m.recon.CellUV(m.U, nlev, nlev-1, c)
	}
}

// WindSpeedBound bounds the reconstructed winds by the edge winds: for any
// U, neither MaxWind nor MaxWindLocal exceeds WindSpeedBound() × max |U|.
// A guardrail can therefore clear the wind limit with one pass over U and
// reconstruct only when that pass does not.
func (m *Model) WindSpeedBound() float64 { return m.recon.speedBound }

// MaxWindLocal returns the largest reconstructed wind speed over this rank's
// owned cells (all cells when replicated). Owned regions partition the mesh,
// so a max-allreduce of the local values reproduces MaxWind exactly.
func (m *Model) MaxWindLocal() float64 {
	var worst float64
	m.eachOwnedCell(func(c int) {
		if s := m.columnMaxWind(c); s > worst {
			worst = s
		}
	})
	return worst
}

// eachOwnedCell calls fn serially, in ascending cell order, for every cell
// this rank owns (every cell when replicated) — the iteration of the local
// halves of the cross-rank reductions.
func (m *Model) eachOwnedCell(fn func(c int)) {
	if m.dec == nil {
		for c := 0; c < m.Mesh.NCells(); c++ {
			fn(c)
		}
		return
	}
	for _, c := range m.dec.OwnedLocal {
		fn(c)
	}
}

// TotalMoistureLocal returns the water-vapour mass (kg) over this rank's
// owned cells — the global total on a replicated model — changed only by
// evaporation and precipitation.
func (m *Model) TotalMoistureLocal() float64 {
	re2 := grid.EarthRadius * grid.EarthRadius
	var sum float64
	m.eachOwnedCell(func(c int) {
		colMass := m.Ps[c] / Gravity * m.Mesh.AreaCell[c] * re2
		for k, qv := range m.Columns(m.Qv, c, 1) {
			sum += qv * colMass * m.DSig[k]
		}
	})
	return sum
}

// SurfaceVorticity returns the lowest-level relative vorticity interpolated
// to cells (1/s), used by the storm tracker.
func (m *Model) SurfaceVorticity() []float64 {
	mesh := m.Mesh
	nc, nv := mesh.NCells(), mesh.NVertices()
	kb := m.NLev - 1
	re := grid.EarthRadius

	vortV := make([]float64, nv)
	for v := 0; v < nv; v++ {
		var circ float64
		for j := 0; j < 3; j++ {
			e := int(mesh.EdgesOnVertex[v][j])
			circ += float64(mesh.EdgeSignOnVtx[v][j]) * m.U[m.Idx(e, kb)] * mesh.Dc[e] * re
		}
		vortV[v] = circ / (mesh.AreaDual[v] * re * re)
	}
	out := make([]float64, nc)
	cnt := make([]int, nc)
	for v := 0; v < nv; v++ {
		for _, c := range mesh.CellsOnVertex[v] {
			out[c] += vortV[v]
			cnt[c]++
		}
	}
	for c := 0; c < nc; c++ {
		if cnt[c] > 0 {
			out[c] /= float64(cnt[c])
		}
	}
	return out
}

// MinPs returns the lowest surface pressure and the cell holding it — the
// storm-center diagnostic.
func (m *Model) MinPs() (float64, int) {
	best, at := math.Inf(1), -1
	for c, p := range m.Ps {
		if p < best {
			best, at = p, c
		}
	}
	return best, at
}

// MinPsLocal returns the lowest surface pressure over this rank's owned
// cells (all cells when replicated). Owned ranges partition the mesh, so a
// min-allreduce of the local values reproduces MinPs.
func (m *Model) MinPsLocal() float64 {
	best := math.Inf(1)
	m.eachOwnedCell(func(c int) {
		if m.Ps[c] < best {
			best = m.Ps[c]
		}
	})
	return best
}

// GlobalPrecipRate returns the area-weighted mean precipitation rate
// (kg/m²/s ≈ mm/s).
func (m *Model) GlobalPrecipRate() float64 {
	var num, den float64
	for c := 0; c < m.Mesh.NCells(); c++ {
		num += m.Precip[c] * m.Mesh.AreaCell[c]
		den += m.Mesh.AreaCell[c]
	}
	return num / den
}

// TotalCloudProxy returns a 0–1 cloud-fraction-like field from column
// moisture, the Fig 1b visualization quantity.
func (m *Model) TotalCloudProxy() []float64 {
	out := make([]float64, m.Mesh.NCells())
	for c := range out {
		out[c] = m.CloudProxy(c)
	}
	return out
}

// CloudProxy returns cell c's 0–1 cloud proxy: its column water (kg/m²)
// over 50, capped at 1.
func (m *Model) CloudProxy(c int) float64 {
	var w float64
	for k, qv := range m.Columns(m.Qv, c, 1) {
		w += qv * m.Ps[c] * m.DSig[k] / Gravity
	}
	return math.Min(1, w/50)
}
