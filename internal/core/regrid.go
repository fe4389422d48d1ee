package core

import (
	"math"
	"slices"
	"sort"

	"repro/internal/grid"
)

// consSub is the per-axis subsample count of the conservative overlap
// construction: each ocean cell is probed on a consSub×consSub lattice, so
// every weight is a multiple of 1/16 — exactly representable, and each wet
// row's weights sum to exactly 1.0 in floating point.
const consSub = 4

// Regridder holds the maps between the atmosphere's icosahedral mesh and
// the ocean's tripolar grid, the role MCT's sparse matrix interpolation
// plays in CPL7: the nearest-neighbour maps in both directions, and the
// first-order conservative overlap weights used by the air–sea flux remap
// and by the budget ledger's atmosphere-side interface integrals. Its
// tables cover both whole grids: one rank's assembly builds it and hands
// its arrays to the coupling plan (initDistribute); a decomposed rank
// builds no Regridder, only the rows of its own ocean block and the
// nearest columns of its own patch (assemblePatch), with the same
// functions.
type Regridder struct {
	// The rows of every ocean column, by global column index: OcnToAtm,
	// ConsPtr, ConsCol and ConsW.
	remapRows
	// AtmToOcn[c] is the global ocean column nearest to atmosphere cell c,
	// or -1 when no wet column is reachable (the cell is served by the land
	// model instead).
	AtmToOcn []int

	// Unmapped lists the non-land atmosphere cells whose spiral search found
	// no wet ocean column within the ring limit (deep-inland cells over the
	// analytic continents at fine ocean resolutions). The driver routes
	// these to the land model explicitly so their fluxes are never dropped.
	Unmapped []int

	// AtmOverlapArea[c] = Ã_c = Σ_i ŵ_ic·A_i is the ocean area (m²) that
	// atmosphere cell c covers through the overlap weights — the
	// atmosphere-side interface areas of the budget ledger. Its total equals
	// the wet ocean area exactly up to summation round-off, which is what
	// makes the conservative remap's export and import integrals agree.
	AtmOverlapArea []float64
}

// NewRegridder precomputes the nearest-neighbour maps and the conservative
// overlap weights, each nearest-cell query a short walk from the last answer.
func NewRegridder(mesh *grid.IcosMesh, g *grid.Tripolar) *Regridder {
	r := &Regridder{
		AtmToOcn:       make([]int, mesh.NCells()),
		AtmOverlapArea: make([]float64, mesh.NCells()),
	}
	wet := wetMask(g)
	r.remapRows = newRemapRows(newCellWalk(mesh), g, wet, 0, 0, g.NX, g.NY,
		func(cell int32, _ int, area float64) { r.AtmOverlapArea[cell] += area })

	// Atmosphere cells → nearest wet ocean column.
	for c := 0; c < mesh.NCells(); c++ {
		lon, lat := mesh.LonCell[c], mesh.LatCell[c]
		r.AtmToOcn[c] = nearestWet(g, wet, lon, lat)
		if r.AtmToOcn[c] < 0 && !grid.IsLand(lon, lat) {
			// Non-land cell with no reachable wet column: the driver routes
			// its surface exchange to the land model instead of dropping it.
			r.Unmapped = append(r.Unmapped, c)
		}
	}
	return r
}

// remapRows are the ocean side of the remap for a block of ocean columns,
// in block order (rows south to north, columns west to east): each
// column's nearest atmosphere cell, and the CSR rows of the conservative
// overlap weights.
type remapRows struct {
	// OcnToAtm[i] is the atmosphere cell nearest to ocean column i.
	OcnToAtm []int

	// Conservative overlap weights in CSR layout over ocean columns: wet
	// column i overlaps atmosphere cells ConsCol[ConsPtr[i]:ConsPtr[i+1]]
	// with normalized weights ConsW summing to exactly 1 per row. Dry
	// columns have empty rows.
	ConsPtr []int32
	ConsCol []int32
	ConsW   []float64
}

// newRemapRows builds the rows of the ocean columns [i0, i0+ni) ×
// [j0, j0+nj) of g (wet: its land mask) and hands overlap every CSR entry's
// term of the overlap areas, Ã_c += ŵ_ic·A_i: its atmosphere cell c, its
// global column i and ŵ_ic·A_i, in block order. The walk finds each cell
// exactly from any start, so a block's rows are the whole grid's rows of
// its columns, bit for bit.
func newRemapRows(walk cellWalk, g *grid.Tripolar, wet []bool, i0, j0, ni, nj int, overlap func(cell int32, gi int, area float64)) remapRows {
	r := remapRows{
		OcnToAtm: make([]int, 0, ni*nj),
		ConsPtr:  make([]int32, 1, ni*nj+1),
	}

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
	cosLon, sinLon := make([]float64, ni*nSub), make([]float64, ni*nSub)
	for i, lon := range g.Lon[i0 : i0+ni] {
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
	for j := j0; j < j0+nj; j++ {
		for t, o := range off {
			latS[t] = g.Lat[j] + o*dlat
			cosLat[t], sinLat[t] = math.Cos(latS[t]), math.Sin(latS[t])
		}
		for i := 0; i < ni; i++ {
			idx := j*g.NX + i0 + i
			c = walk.nearest(at(i, consSub, consSub), g.Lat[j], c)
			r.OcnToAtm = append(r.OcnToAtm, c)
			cs, row := c, len(r.ConsCol)
			for t := 0; t < consSub && wet[idx]; t++ {
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
				overlap(r.ConsCol[p], idx, r.ConsW[p]*g.CellArea(j))
			}
			r.ConsPtr = append(r.ConsPtr, int32(len(r.ConsCol)))
		}
	}
	return r
}

// nearestWet returns the wet ocean column (wet: g's land mask) nearest the
// point (lon, lat) — a grid-aligned lookup with a spiral search for a
// coastal point whose own column is land — or −1 when none is within
// reach.
func nearestWet(g *grid.Tripolar, wet []bool, lon, lat float64) int {
	if lon < 0 {
		lon += 2 * math.Pi
	}
	i := min(max(int(lon/(2*math.Pi)*float64(g.NX)), 0), g.NX-1)
	idx := nearestLatRow(g, lat)*g.NX + i
	if wet[idx] {
		return idx
	}
	return spiralWet(g, wet, i, idx/g.NX, 6)
}

// consRow is one conservative remap row, Σ w[k]·src[col[k]] summed in
// ascending k: the import passes a row's weights with its entries' ghost
// ids and the ghost values, so every rank count evaluates one expression.
func consRow(w []float64, col []int32, src []float64) float64 {
	var acc float64
	for k, c := range col {
		acc += w[k] * src[c]
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

// wetMask returns the grid's land mask per column: the regridder probes a
// column many times over, and the grid itself stores no mask.
func wetMask(g *grid.Tripolar) []bool {
	wet := make([]bool, g.NX*g.NY)
	for gi := range wet {
		wet[gi] = g.Wet(gi)
	}
	return wet
}

// spiralWet searches outward for the nearest wet column of the mask wet; -1
// if none within the ring limit (deep-inland atmosphere cells, served by the
// land model). Ring r is scanned row by row, south to north, west to east.
func spiralWet(g *grid.Tripolar, wet []bool, i0, j0, rings int) int {
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
				if wet[j*g.NX+i] {
					return j*g.NX + i
				}
			}
		}
	}
	return -1
}
