package core

import (
	"fmt"
	"math"
	"slices"
	"sort"

	"repro/internal/grid"
)

// RemapMode selects how the coupler remaps air–sea fluxes between the
// atmosphere's icosahedral mesh and the ocean's tripolar grid.
type RemapMode int

const (
	// RemapNN delivers each ocean column the flux computed from its nearest
	// atmosphere cell — the historical mode. Fast and exactly invertible in
	// spot checks, but the area-integrated flux the atmosphere exports is
	// not the flux the ocean imports: the budget ledger reports the leak.
	RemapNN RemapMode = iota
	// RemapCons delivers first-order conservative fluxes: each wet ocean
	// cell receives the normalized-overlap-weighted average of the
	// per-atmosphere-cell fluxes, so the area integral is preserved to
	// round-off — MCT's conservative sparse-matrix interpolation (§5.1.1).
	RemapCons
)

// String implements fmt.Stringer.
func (m RemapMode) String() string {
	switch m {
	case RemapNN:
		return "nn"
	case RemapCons:
		return "cons"
	default:
		return fmt.Sprintf("RemapMode(%d)", int(m))
	}
}

// ParseRemap maps the -remap flag values onto RemapMode.
func ParseRemap(name string) (RemapMode, error) {
	switch name {
	case "nn":
		return RemapNN, nil
	case "cons":
		return RemapCons, nil
	default:
		return 0, fmt.Errorf("core: unknown remap mode %q (want nn or cons)", name)
	}
}

// consSub is the per-axis subsample count of the conservative overlap
// construction: each ocean cell is probed on a consSub×consSub lattice, so
// every weight is a multiple of 1/16 — exactly representable, and each wet
// row's weights sum to exactly 1.0 in floating point.
const consSub = 4

// Regridder holds the maps between the atmosphere's icosahedral mesh and
// the ocean's tripolar grid, the role MCT's sparse matrix interpolation
// plays in CPL7: the nearest-neighbour maps in both directions, and the
// first-order conservative overlap weights used by RemapCons and by the
// budget ledger's atmosphere-side interface integrals.
type Regridder struct {
	// OcnToAtm[i] is the atmosphere cell nearest to global ocean column i.
	OcnToAtm []int
	// AtmToOcn[c] is the global ocean column nearest to atmosphere cell c,
	// or -1 when no wet column is reachable (the cell is served by the land
	// model instead).
	AtmToOcn []int

	// Unmapped lists the non-land atmosphere cells whose spiral search found
	// no wet ocean column within the ring limit (deep-inland cells over the
	// analytic continents at fine ocean resolutions). The driver routes
	// these to the land model explicitly so their fluxes are never dropped.
	Unmapped []int

	// Conservative overlap weights in CSR layout over ocean columns: wet
	// column i overlaps atmosphere cells ConsCol[ConsPtr[i]:ConsPtr[i+1]]
	// with normalized weights ConsW summing to exactly 1 per row. Dry
	// columns have empty rows.
	ConsPtr []int32
	ConsCol []int32
	ConsW   []float64

	// AtmOverlapArea[c] = Ã_c = Σ_i ŵ_ic·A_i is the ocean area (m²) that
	// atmosphere cell c covers through the overlap weights — the
	// atmosphere-side interface areas of the budget ledger. Its total equals
	// the wet ocean area exactly up to summation round-off, which is what
	// makes the conservative mode's export and import integrals agree.
	AtmOverlapArea []float64
}

// NewRegridder precomputes the nearest-neighbour maps and the conservative
// overlap weights, each nearest-cell query a short walk from the last answer.
func NewRegridder(mesh *grid.IcosMesh, g *grid.Tripolar) *Regridder {
	r := &Regridder{
		OcnToAtm:       make([]int, g.NX*g.NY),
		AtmToOcn:       make([]int, mesh.NCells()),
		ConsPtr:        make([]int32, g.NX*g.NY+1),
		AtmOverlapArea: make([]float64, mesh.NCells()),
	}
	walk := newCellWalk(mesh)

	// Query points: each ocean column's consSub×consSub lattice of samples
	// and its centre (the last offset). FromLonLat is separable, so the
	// cos/sin of every lattice longitude and latitude are taken once.
	const nSub = consSub + 1
	var off [nSub]float64 // in cell widths
	for s := 0; s < consSub; s++ {
		off[s] = (float64(s)+0.5)/consSub - 0.5
	}
	dlon, dlat := 2*math.Pi/float64(g.NX), 0.0
	if g.NY > 1 {
		dlat = g.Lat[1] - g.Lat[0]
	}
	cosLon, sinLon := make([]float64, g.NX*nSub), make([]float64, g.NX*nSub)
	for i, lon := range g.Lon {
		for s, o := range off {
			cosLon[i*nSub+s], sinLon[i*nSub+s] = math.Cos(lon+o*dlon), math.Sin(lon+o*dlon)
		}
	}
	var latS, cosLat, sinLat [nSub]float64
	at := func(i, s, t int) grid.Vec3 {
		return grid.Vec3{X: cosLat[t] * cosLon[i*nSub+s], Y: cosLat[t] * sinLon[i*nSub+s], Z: sinLat[t]}
	}

	// Each sample's containing atmosphere cell is its nearest Voronoi center
	// (exact containment on the icosahedral Voronoi mesh), and the
	// normalized weight of an atmosphere cell is its sample count over
	// consSub². Sample points of land-masked atmosphere cells keep their
	// weight (destination-area normalization), so coastal mask mismatch
	// damps the delivered flux rather than breaking the conservation
	// identity.
	c := 0
	for j := 0; j < g.NY; j++ {
		for t, o := range off {
			latS[t] = g.Lat[j] + o*dlat
			cosLat[t], sinLat[t] = math.Cos(latS[t]), math.Sin(latS[t])
		}
		for i := 0; i < g.NX; i++ {
			idx := j*g.NX + i
			c = walk.nearest(at(i, consSub, consSub), g.Lat[j], c)
			r.OcnToAtm[idx] = c
			cs, row := c, len(r.ConsCol)
			for t := 0; t < consSub && g.Mask[idx]; t++ {
				for s := 0; s < consSub; s++ {
					cs = walk.nearest(at(i, s, t), latS[t], cs)
					h := slices.Index(r.ConsCol[row:], int32(cs))
					if h < 0 {
						h = len(r.ConsCol) - row
						r.ConsCol, r.ConsW = append(r.ConsCol, int32(cs)), append(r.ConsW, 0)
					}
					r.ConsW[row+h] += 1.0 / (consSub * consSub) // exact: counts of 1/16
				}
			}
			for p := row; p < len(r.ConsCol); p++ {
				r.AtmOverlapArea[r.ConsCol[p]] += r.ConsW[p] * g.Area[idx]
			}
			r.ConsPtr[idx+1] = int32(len(r.ConsCol))
		}
	}

	// Atmosphere cells → nearest wet ocean column (grid-aligned lookup with
	// a spiral search for coastal cells whose nearest column is land).
	for c := 0; c < mesh.NCells(); c++ {
		lon, lat := mesh.LonCell[c], mesh.LatCell[c]
		if lon < 0 {
			lon += 2 * math.Pi
		}
		i := min(max(int(lon/(2*math.Pi)*float64(g.NX)), 0), g.NX-1)
		idx := nearestLatRow(g, lat)*g.NX + i
		if g.Mask[idx] {
			r.AtmToOcn[c] = idx
			continue
		}
		r.AtmToOcn[c] = spiralWet(g, i, idx/g.NX, 6)
		if r.AtmToOcn[c] < 0 && !grid.IsLand(lon, lat) {
			// Non-land cell with no reachable wet column: the driver routes
			// its surface exchange to the land model instead of dropping it.
			r.Unmapped = append(r.Unmapped, c)
		}
	}
	return r
}

// ConsRemap returns the conservative overlap average of the
// per-atmosphere-cell field src at global ocean column gi: one column per
// call, so the caller's loop over its block allocates nothing.
func (r *Regridder) ConsRemap(src []float64, gi int) float64 {
	var acc float64
	for p := r.ConsPtr[gi]; p < r.ConsPtr[gi+1]; p++ {
		acc += r.ConsW[p] * src[r.ConsCol[p]]
	}
	return acc
}

// cellWalk finds nearest atmosphere cells by greedy walks over the mesh.
// On a Delaunay triangulation a cell with no neighbour nearer the query is
// the nearest of all (TestIcosMeshIsDelaunay), so a walk is exact from any
// start and costs the cells between the start and the answer.
type cellWalk struct {
	mesh *grid.IcosMesh
	// inner[c] is the cosine of 0.49 of c's shortest edge: a point whose dot
	// product with c's centre reaches it is nearer c than any other centre
	// (the nearest centre to c is a Delaunay neighbour), so the walk stops.
	inner []float64
}

func newCellWalk(mesh *grid.IcosMesh) cellWalk {
	w := cellWalk{mesh, make([]float64, mesh.NCells())}
	for c := range w.inner {
		dc := math.Inf(1)
		for _, e := range mesh.EdgesOnCell(c) {
			dc = min(dc, mesh.Dc[e])
		}
		w.inner[c] = math.Cos(0.49 * dc)
	}
	return w
}

// nearest returns the cell whose centre has the largest dot product with p
// (latitude lat), walking from cell c to its best neighbour until none is
// better.
func (w cellWalk) nearest(p grid.Vec3, lat float64, c int) int {
	best := p.Dot(w.mesh.CellCenter[c])
	for best < w.inner[c] {
		next, tie := c, false
		for _, n := range w.mesh.CellsOnCell(c) {
			if d := p.Dot(w.mesh.CellCenter[n]); d > best {
				best, next = d, int(n)
			} else if d == best {
				tie = true
			}
		}
		if next == c {
			if tie {
				return w.firstOfTie(p, lat, c, best)
			}
			break
		}
		c = next
	}
	return c
}

// firstOfTie settles an exact tie among the cells joined to c through cells
// of the same dot product: the nearest latitude band (bucketOf) to the
// query's, the southern of two equally near, then the lowest id. That is
// the order a scan of latitude bands outward from the query's meets cells,
// which built these maps before the walk, so they keep their bits
// (TestRegridderMatchesBucketOracle).
func (w cellWalk) firstOfTie(p grid.Vec3, lat float64, c int, best float64) int {
	b0 := bucketOf(lat)
	order := func(x int) int {
		d := bucketOf(w.mesh.LatCell[x]) - b0
		if d > 0 {
			d = 2*d + 1
		}
		return max(d, -2*d)*w.mesh.NCells() + x
	}
	pick, tied := c, []int{c}
	for k := 0; k < len(tied); k++ {
		for _, nb := range w.mesh.CellsOnCell(tied[k]) {
			if n := int(nb); p.Dot(w.mesh.CellCenter[n]) == best && !slices.Contains(tied, n) {
				tied = append(tied, n)
				if order(n) < order(pick) {
					pick = n
				}
			}
		}
	}
	return pick
}

// bucketOf returns which of 64 equal latitude bands holds lat.
func bucketOf(lat float64) int { return min(max(int((lat+math.Pi/2)/math.Pi*64), 0), 63) }

// nearestLatRow finds the grid row whose center latitude is closest, the
// southern one of two equally close (rows ascend south to north).
func nearestLatRow(g *grid.Tripolar, lat float64) int {
	j := sort.SearchFloat64s(g.Lat, lat)
	if j == g.NY || j > 0 && math.Abs(g.Lat[j-1]-lat) <= math.Abs(g.Lat[j]-lat) {
		j--
	}
	return j
}

// spiralWet searches outward for the nearest wet column; -1 if none within
// the ring limit (deep-inland atmosphere cells, served by the land model).
// Ring r is scanned row by row, south to north, west to east.
func spiralWet(g *grid.Tripolar, i0, j0, rings int) int {
	for r := 1; r <= rings; r++ {
		for dj := -r; dj <= r; dj++ {
			j := j0 + dj
			if j < 0 || j >= g.NY {
				continue
			}
			step := 2 * r // the ring's side columns only, between its top and bottom rows
			if dj == -r || dj == r {
				step = 1
			}
			for di := -r; di <= r; di += step {
				i := ((i0+di)%g.NX + g.NX) % g.NX
				if g.Mask[j*g.NX+i] {
					return j*g.NX + i
				}
			}
		}
	}
	return -1
}
