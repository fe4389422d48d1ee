package atmos

import (
	"math"

	"repro/internal/grid"
)

// reconstructor recovers full tangent-plane velocity vectors at cell
// centers from edge-normal components, by per-cell least squares over the
// cell's edges. The weights are precomputed once from the mesh geometry;
// a constant vector field is reconstructed exactly because each cell's edge
// normals span its tangent plane.
type reconstructor struct {
	mesh *grid.IcosMesh
	// The 3×nEdges pseudo-inverse of each cell, one weight vector per
	// IcosMesh slot: uVec(c) = Σ_s (wX, wY, wZ)[s] · u_SlotEdge[s]. The
	// dycore's cell kernel reads the same tables.
	wX, wY, wZ []float64
	// normal3 is the unit normal direction of each edge (pointing c1→c2,
	// tangent to the sphere at the edge midpoint).
	normal3 []grid.Vec3
	// east and north are the local unit vectors at each cell center, used
	// to express reconstructed vectors as (zonal, meridional) components.
	east, north []grid.Vec3
	// speedBound is the largest Σ_e |w_e| over cells, widened past rounding:
	// no reconstructed speed exceeds speedBound × max |u_e|.
	speedBound float64
}

func newReconstructor(mesh *grid.IcosMesh) *reconstructor {
	r := &reconstructor{mesh: mesh}
	ne := mesh.NEdges()
	r.normal3 = make([]grid.Vec3, ne)
	for e := 0; e < ne; e++ {
		c1, c2 := mesh.CellsOnEdge[e][0], mesh.CellsOnEdge[e][1]
		mid := mesh.EdgeMidpoint[e]
		n := mesh.CellCenter[c2].Sub(mesh.CellCenter[c1])
		// Project onto the tangent plane at the midpoint.
		n = n.Sub(mid.Scale(n.Dot(mid))).Normalize()
		r.normal3[e] = n
	}

	nc := mesh.NCells()
	ns := len(mesh.SlotEdge)
	r.wX, r.wY, r.wZ = make([]float64, ns), make([]float64, ns), make([]float64, ns)
	r.east = make([]grid.Vec3, nc)
	r.north = make([]grid.Vec3, nc)
	for c := 0; c < nc; c++ {
		p := mesh.CellCenter[c]
		lon, lat := mesh.LonCell[c], mesh.LatCell[c]
		sinLon, cosLon, sinLat, cosLat := math.Sin(lon), math.Cos(lon), math.Sin(lat), math.Cos(lat)
		r.east[c] = grid.Vec3{X: -sinLon, Y: cosLon, Z: 0}
		r.north[c] = grid.Vec3{X: -sinLat * cosLon, Y: -sinLat * sinLon, Z: cosLat}

		lo, hi := mesh.Slots(c)
		edges := mesh.SlotEdge[lo:hi]
		// Solve min Σ_e (v·n_e − u_e)² for v in the tangent plane at p:
		// v = (Σ n nᵀ + λ p pᵀ)⁻¹ Σ n u — the p pᵀ term pins the radial
		// component to zero.
		var a [3][3]float64
		for _, e := range edges {
			n := r.normal3[e]
			a[0][0] += n.X * n.X
			a[0][1] += n.X * n.Y
			a[0][2] += n.X * n.Z
			a[1][1] += n.Y * n.Y
			a[1][2] += n.Y * n.Z
			a[2][2] += n.Z * n.Z
		}
		const lambda = 10.0
		a[0][0] += lambda * p.X * p.X
		a[0][1] += lambda * p.X * p.Y
		a[0][2] += lambda * p.X * p.Z
		a[1][1] += lambda * p.Y * p.Y
		a[1][2] += lambda * p.Y * p.Z
		a[2][2] += lambda * p.Z * p.Z
		a[1][0], a[2][0], a[2][1] = a[0][1], a[0][2], a[1][2]

		inv := invert3(a)
		norm := 0.0
		for i, e := range edges {
			n := r.normal3[e]
			w := grid.Vec3{
				X: inv[0][0]*n.X + inv[0][1]*n.Y + inv[0][2]*n.Z,
				Y: inv[1][0]*n.X + inv[1][1]*n.Y + inv[1][2]*n.Z,
				Z: inv[2][0]*n.X + inv[2][1]*n.Y + inv[2][2]*n.Z,
			}
			r.wX[lo+i], r.wY[lo+i], r.wZ[lo+i] = w.X, w.Y, w.Z
			norm += math.Sqrt(w.Dot(w))
		}
		r.speedBound = math.Max(r.speedBound, norm)
	}
	// |Σ w_e u_e| ≤ Σ |w_e| |u_e|, and the (east, north) pair is a
	// projection of the vector, so the exact speed is within the bound; the
	// margin covers the rounding of the few dozen operations behind a
	// computed speed.
	r.speedBound *= 1 + 1e-9
	return r
}

// invert3 inverts a symmetric 3×3 matrix by cofactors.
func invert3(a [3][3]float64) [3][3]float64 {
	det := a[0][0]*(a[1][1]*a[2][2]-a[1][2]*a[2][1]) -
		a[0][1]*(a[1][0]*a[2][2]-a[1][2]*a[2][0]) +
		a[0][2]*(a[1][0]*a[2][1]-a[1][1]*a[2][0])
	inv := [3][3]float64{}
	if det == 0 {
		return inv
	}
	d := 1 / det
	inv[0][0] = (a[1][1]*a[2][2] - a[1][2]*a[2][1]) * d
	inv[0][1] = (a[0][2]*a[2][1] - a[0][1]*a[2][2]) * d
	inv[0][2] = (a[0][1]*a[1][2] - a[0][2]*a[1][1]) * d
	inv[1][0] = (a[1][2]*a[2][0] - a[1][0]*a[2][2]) * d
	inv[1][1] = (a[0][0]*a[2][2] - a[0][2]*a[2][0]) * d
	inv[1][2] = (a[0][2]*a[1][0] - a[0][0]*a[1][2]) * d
	inv[2][0] = (a[1][0]*a[2][1] - a[1][1]*a[2][0]) * d
	inv[2][1] = (a[0][1]*a[2][0] - a[0][0]*a[2][1]) * d
	inv[2][2] = (a[0][0]*a[1][1] - a[0][1]*a[1][0]) * d
	return inv
}

// CellVector reconstructs the 3-D tangent velocity at cell c from level k of
// a column-major edge field with nlev levels (u[e·nlev+k]).
func (r *reconstructor) CellVector(u []float64, nlev, k, c int) grid.Vec3 {
	var v grid.Vec3
	lo, hi := r.mesh.Slots(c)
	for s := lo; s < hi; s++ {
		v = v.Add(r.weight(s).Scale(u[int(r.mesh.SlotEdge[s])*nlev+k]))
	}
	return v
}

// weight returns slot s's weight vector.
func (r *reconstructor) weight(s int) grid.Vec3 { return grid.Vec3{X: r.wX[s], Y: r.wY[s], Z: r.wZ[s]} }

// CellUV reconstructs the zonal and meridional velocity components at cell c
// on level k of a column-major edge field.
func (r *reconstructor) CellUV(u []float64, nlev, k, c int) (east, north float64) {
	vec := r.CellVector(u, nlev, k, c)
	return vec.Dot(r.east[c]), vec.Dot(r.north[c])
}
