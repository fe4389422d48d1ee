package core

import (
	"math"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/grid"
)

func TestParseRemap(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want RemapMode
	}{{"nn", RemapNN}, {"cons", RemapCons}} {
		got, err := ParseRemap(tc.in)
		if err != nil || got != tc.want {
			t.Errorf("ParseRemap(%q) = %v, %v", tc.in, got, err)
		}
		if got.String() != tc.in {
			t.Errorf("%v.String() = %q, want %q", got, got.String(), tc.in)
		}
	}
	if _, err := ParseRemap("bilinear"); err == nil {
		t.Error("unknown remap mode accepted")
	}
}

// bucketScan is the nearest-cell query NewRegridder made before the
// Delaunay walk: a scan of 64 latitude buckets outward from the query's for
// the largest dot product, O(√cells) per query with a math.Cos per ring,
// keeping the first cell met on an exact tie.
func bucketScan(mesh *grid.IcosMesh) func(p grid.Vec3, lat float64) int {
	const nBuckets = 64
	bw := math.Pi / float64(nBuckets)
	buckets := make([][]int, nBuckets)
	for c := 0; c < mesh.NCells(); c++ {
		b := bucketOf(mesh.LatCell[c])
		buckets[b] = append(buckets[b], c)
	}
	return func(p grid.Vec3, lat float64) int {
		best, bestDot := -1, -2.0
		b0 := bucketOf(lat)
		for db := 0; ; db++ {
			lo, hi := b0-db, b0+db
			if lo < 0 && hi >= nBuckets {
				break // every bucket searched
			}
			for _, b := range []int{lo, hi} {
				if b < 0 || b >= nBuckets || (db == 0 && b != b0) {
					continue
				}
				for _, c := range buckets[b] {
					if d := p.Dot(mesh.CellCenter[c]); d > bestDot {
						bestDot, best = d, c
					}
				}
			}
			if best < 0 {
				continue
			}
			// Termination bound: any cell in a still-unsearched bucket ring
			// is separated from p in latitude by at least the distance to
			// the searched band's nearer edge, so its dot product cannot
			// exceed cos(sep). Expanding stops only once the current best
			// provably beats everything outside the band — the fix for the
			// fixed two-ring cutoff, which could return a non-nearest cell
			// when the true nearest sat more than one bucket away.
			sep := math.Inf(1)
			if lo-1 >= 0 {
				sep = lat - (-math.Pi/2 + float64(lo)*bw)
			}
			if hi+1 < nBuckets {
				if s := (-math.Pi/2 + float64(hi+1)*bw) - lat; s < sep {
					sep = s
				}
			}
			if math.IsInf(sep, 1) || math.Cos(sep) < bestDot {
				break
			}
		}
		return best
	}
}

// bucketRegridder is NewRegridder as it stood before the Delaunay walk,
// over bucketScan: the oracle the walk must match field for field and bit
// for bit, ties included.
func bucketRegridder(mesh *grid.IcosMesh, g *grid.Tripolar) *Regridder {
	r := &Regridder{
		OcnToAtm:       make([]int, g.NX*g.NY),
		AtmToOcn:       make([]int, mesh.NCells()),
		AtmOverlapArea: make([]float64, mesh.NCells()),
	}
	nearestAtm := bucketScan(mesh)

	for j := 0; j < g.NY; j++ {
		for i := 0; i < g.NX; i++ {
			p := grid.FromLonLat(g.Lon[i], g.Lat[j])
			r.OcnToAtm[j*g.NX+i] = nearestAtm(p, g.Lat[j])
		}
	}

	// Conservative overlap weights: probe each wet ocean cell on a
	// consSub×consSub lattice of sample points; each sample's containing
	// atmosphere cell is its nearest Voronoi center (exact containment on
	// the icosahedral Voronoi mesh), and the normalized weight of an
	// atmosphere cell is its sample count over consSub². Sample points of
	// land-masked atmosphere cells keep their weight (destination-area
	// normalization), so coastal mask mismatch damps the delivered flux
	// rather than breaking the conservation identity.
	dlon := 2 * math.Pi / float64(g.NX)
	dlat := 0.0
	if g.NY > 1 {
		dlat = g.Lat[1] - g.Lat[0]
	}
	r.ConsPtr = make([]int32, g.NX*g.NY+1)
	var hitCells [consSub * consSub]int
	var hitCounts [consSub * consSub]int
	for j := 0; j < g.NY; j++ {
		for i := 0; i < g.NX; i++ {
			idx := j*g.NX + i
			if !g.Mask[idx] {
				r.ConsPtr[idx+1] = r.ConsPtr[idx]
				continue
			}
			nHit := 0
			for t := 0; t < consSub; t++ {
				latS := g.Lat[j] + ((float64(t)+0.5)/consSub-0.5)*dlat
				for s := 0; s < consSub; s++ {
					lonS := g.Lon[i] + ((float64(s)+0.5)/consSub-0.5)*dlon
					c := nearestAtm(grid.FromLonLat(lonS, latS), latS)
					found := false
					for h := 0; h < nHit; h++ {
						if hitCells[h] == c {
							hitCounts[h]++
							found = true
							break
						}
					}
					if !found {
						hitCells[nHit] = c
						hitCounts[nHit] = 1
						nHit++
					}
				}
			}
			for h := 0; h < nHit; h++ {
				w := float64(hitCounts[h]) / (consSub * consSub)
				r.ConsCol = append(r.ConsCol, int32(hitCells[h]))
				r.ConsW = append(r.ConsW, w)
				r.AtmOverlapArea[hitCells[h]] += w * g.Area[idx]
			}
			r.ConsPtr[idx+1] = r.ConsPtr[idx] + int32(nHit)
		}
	}

	// Atmosphere cells → nearest wet ocean column (grid-aligned lookup with
	// a spiral search for coastal cells whose nearest column is land).
	for c := 0; c < mesh.NCells(); c++ {
		lon, lat := mesh.LonCell[c], mesh.LatCell[c]
		if lon < 0 {
			lon += 2 * math.Pi
		}
		i := int(lon / (2 * math.Pi) * float64(g.NX))
		i = min(max(i, 0), g.NX-1)
		j := scanLatRow(g, lat)
		idx := j*g.NX + i
		if g.Mask[idx] {
			r.AtmToOcn[c] = idx
			continue
		}
		r.AtmToOcn[c] = spiralWet(g, i, j, 6)
		if r.AtmToOcn[c] < 0 && !grid.IsLand(lon, lat) {
			// Non-land cell with no reachable wet column: the driver routes
			// its surface exchange to the land model instead of dropping it.
			r.Unmapped = append(r.Unmapped, c)
		}
	}
	return r
}

// scanLatRow is nearestLatRow as a scan of every row, the first of equally
// close rows winning.
func scanLatRow(g *grid.Tripolar, lat float64) int {
	best, bestD := 0, math.Inf(1)
	for j := 0; j < g.NY; j++ {
		if d := math.Abs(g.Lat[j] - lat); d < bestD {
			best, bestD = j, d
		}
	}
	return best
}

// The binary search must pick the scan's row everywhere: random latitudes
// inside and beyond the grid, and the midpoints between rows, where the
// southern row wins a tie.
func TestNearestLatRowMatchesScan(t *testing.T) {
	rng := rand.New(rand.NewSource(36))
	for _, cfg := range Configurations() {
		g, err := grid.NewTripolar(cfg.OcnNX, cfg.OcnNY, 1)
		if err != nil {
			t.Fatal(err)
		}
		lats := []float64{-math.Pi / 2, math.Pi / 2}
		for j := 0; j+1 < g.NY; j++ {
			lats = append(lats, g.Lat[j], (g.Lat[j]+g.Lat[j+1])/2)
		}
		for k := 0; k < 1000; k++ {
			lats = append(lats, (rng.Float64()-0.5)*math.Pi)
		}
		for _, lat := range lats {
			if got, want := nearestLatRow(g, lat), scanLatRow(g, lat); got != want {
				t.Fatalf("%s: latitude %v: row %d, scan %d", cfg.Label, lat, got, want)
			}
		}
	}
}

// The walk must reproduce the bucket scan on every query the model makes:
// every field of the Regridder, bit for bit, on every configuration.
func TestRegridderMatchesBucketOracle(t *testing.T) {
	for _, cfg := range Configurations() {
		mesh, err := grid.NewIcosMesh(cfg.AtmLevel)
		if err != nil {
			t.Fatal(err)
		}
		g, err := grid.NewTripolar(cfg.OcnNX, cfg.OcnNY, cfg.OcnNLev)
		if err != nil {
			t.Fatal(err)
		}
		got, want := NewRegridder(mesh, g), bucketRegridder(mesh, g)
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: walk and bucket scan disagree", cfg.Label)
		}
		for c, a := range want.AtmOverlapArea {
			if math.Float64bits(got.AtmOverlapArea[c]) != math.Float64bits(a) {
				t.Fatalf("%s: AtmOverlapArea[%d] %x, oracle %x", cfg.Label, c,
					math.Float64bits(got.AtmOverlapArea[c]), math.Float64bits(a))
			}
		}
	}
}

// bruteNearest is the O(M) reference for the nearest-cell walk.
func bruteNearest(mesh *grid.IcosMesh, p grid.Vec3) (int, float64) {
	best, bestDot := -1, -2.0
	for c := 0; c < mesh.NCells(); c++ {
		if d := p.Dot(mesh.CellCenter[c]); d > bestDot {
			bestDot, best = d, c
		}
	}
	return best, bestDot
}

// The walk must return a true nearest cell for every ocean column, for
// seeded random points anywhere on the sphere from random starts, and — on
// exact ties — the cell the bucket scan kept. Ties are made exact by the
// mesh's bitwise mirror symmetries: a point on the plane x = 0 (or y = 0,
// z = 0) has the same dot product with a cell and its mirror image. On
// z = 0 the two lie in different latitude buckets, on x = 0 and y = 0 in
// the same one.
func TestNearestAtmMatchesBruteForce(t *testing.T) {
	cases := []struct {
		nx, ny, stride int
	}{
		{48, 24, 1},   // C24-vs-coarse: full sweep
		{360, 160, 7}, // ~1° ocean rows against the coarse mesh: subsampled
	}
	mesh, err := grid.NewIcosMesh(3)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range cases {
		g, err := grid.NewTripolar(tc.nx, tc.ny, 3)
		if err != nil {
			t.Fatal(err)
		}
		r := NewRegridder(mesh, g)
		checked := 0
		for j := 0; j < g.NY; j++ {
			for i := 0; i < g.NX; i += tc.stride {
				p := grid.FromLonLat(g.Lon[i], g.Lat[j])
				_, wantDot := bruteNearest(mesh, p)
				got := r.OcnToAtm[j*g.NX+i]
				if gotDot := p.Dot(mesh.CellCenter[got]); gotDot != wantDot {
					t.Fatalf("%dx%d col (%d,%d): walk's pick dot %.17g, brute force %.17g",
						tc.nx, tc.ny, i, j, gotDot, wantDot)
				}
				checked++
			}
		}
		if checked == 0 {
			t.Fatal("no columns checked")
		}
	}

	rng := rand.New(rand.NewSource(36))
	for level := 0; level <= 5; level++ {
		mesh, err := grid.NewIcosMesh(level)
		if err != nil {
			t.Fatal(err)
		}
		walk, scan := newCellWalk(mesh), bucketScan(mesh)
		check := func(what string, p grid.Vec3) {
			_, lat := grid.LonLat(p)
			got := walk.nearest(p, lat, rng.Intn(mesh.NCells()))
			_, wantDot := bruteNearest(mesh, p)
			if gotDot := p.Dot(mesh.CellCenter[got]); gotDot != wantDot {
				t.Fatalf("level %d %s %v: walk's pick dot %.17g, brute force %.17g", level, what, p, gotDot, wantDot)
			}
			if scanned := scan(p, lat); got != scanned {
				t.Fatalf("level %d %s %v: walk picks %d, bucket scan %d", level, what, p, got, scanned)
			}
		}
		for k := 0; k < 2000; k++ {
			p := grid.Vec3{X: rng.NormFloat64(), Y: rng.NormFloat64(), Z: rng.NormFloat64()}.Normalize()
			check("random point", p)
		}
		var ties [3]int // per mirror plane x = 0, y = 0, z = 0
		for k := 0; k < 600; k++ {
			a := rng.Float64() * 2 * math.Pi
			ca, sa := math.Cos(a), math.Sin(a)
			p := [3]grid.Vec3{{Y: ca, Z: sa}, {X: ca, Z: sa}, {X: ca, Y: sa}}[k%3]
			_, best := bruteNearest(mesh, p)
			tied := 0
			for _, ctr := range mesh.CellCenter {
				if p.Dot(ctr) == best {
					tied++
				}
			}
			if tied > 1 {
				ties[k%3]++
			}
			check("mirror-plane point", p)
		}
		if min(ties[0], ties[1], ties[2]) < 20 {
			t.Errorf("level %d: only %v of 200 points per mirror plane tie", level, ties)
		}
	}
}

// The tie order on its own: cells sharing one centre tie exactly on every
// query, and their latitudes alone (random bands around the query's) decide
// which one the bucket scan met first — nearest band, southern side of two
// equally near, lowest id. The walk must pick the same from every start.
func TestWalkTieOrderMatchesBucketScan(t *testing.T) {
	const n = 6
	m := &grid.IcosMesh{
		CellCenter: make([]grid.Vec3, n),
		LatCell:    make([]float64, n),
		CellStart:  make([]int32, n+1),
		SlotEdge:   make([]int32, n*(n-1)), // every slot on edge 0
		Dc:         []float64{0.1},
	}
	for c := range m.CellCenter {
		m.CellCenter[c] = grid.Vec3{X: 1}
		for o := 0; o < n; o++ {
			if o != c {
				m.SlotCell = append(m.SlotCell, int32(o))
			}
		}
		m.CellStart[c+1] = int32(len(m.SlotCell))
	}
	p := grid.Vec3{X: 0.8, Y: 0.6} // dot 0.8 with every centre
	const lat, band = 0.3, math.Pi / 64
	rng := rand.New(rand.NewSource(36))
	for trial := 0; trial < 500; trial++ {
		for c := range m.LatCell {
			m.LatCell[c] = lat + float64(rng.Intn(7)-3)*band
		}
		walk, want := newCellWalk(m), bucketScan(m)(p, lat)
		for start := 0; start < n; start++ {
			if got := walk.nearest(p, lat, start); got != want {
				t.Fatalf("latitudes %v: walk from %d picks %d, bucket scan %d", m.LatCell, start, got, want)
			}
		}
	}
}

// Every wet row of the conservative weights must sum to exactly 1.0: the
// weights are multiples of 1/16, so the sum is exact in floating point and
// any deviation is a construction bug.
func TestConsWeightsNormalized(t *testing.T) {
	mesh, _ := grid.NewIcosMesh(3)
	g, _ := grid.NewTripolar(48, 24, 5)
	r := NewRegridder(mesh, g)
	for idx := range g.Mask {
		var sum float64
		for p := r.ConsPtr[idx]; p < r.ConsPtr[idx+1]; p++ {
			if r.ConsW[p] <= 0 || r.ConsW[p] > 1 {
				t.Fatalf("column %d: weight %g out of range", idx, r.ConsW[p])
			}
			sum += r.ConsW[p]
		}
		if g.Mask[idx] {
			if sum != 1.0 {
				t.Fatalf("wet column %d: weights sum to %.17g, want exactly 1", idx, sum)
			}
		} else if r.ConsPtr[idx] != r.ConsPtr[idx+1] {
			t.Fatalf("dry column %d has %d weights", idx, r.ConsPtr[idx+1]-r.ConsPtr[idx])
		}
	}
}

// The conservation identity behind the budget closure: for any source field
// q, the ocean-side integral of the remapped field equals the
// atmosphere-side integral over the overlap areas Ã_c, up to summation
// round-off. Also checks Σ Ã_c equals the wet ocean area.
func TestConsConservationIdentity(t *testing.T) {
	mesh, _ := grid.NewIcosMesh(3)
	g, _ := grid.NewTripolar(48, 24, 5)
	r := NewRegridder(mesh, g)

	q := make([]float64, mesh.NCells())
	for c := range q {
		// Deterministic, sign-changing, multi-scale field.
		q[c] = 250*math.Sin(3*mesh.LonCell[c])*math.Cos(2*mesh.LatCell[c]) - 40
	}
	var ocnInt, atmInt, gross, wetArea, overlapArea float64
	for idx := range g.Mask {
		if !g.Mask[idx] {
			continue
		}
		ocnInt += g.Area[idx] * r.ConsRemap(q, idx)
		wetArea += g.Area[idx]
	}
	for c, ar := range r.AtmOverlapArea {
		atmInt += ar * q[c]
		gross += ar * math.Abs(q[c])
		overlapArea += ar
	}
	if gross == 0 {
		t.Fatal("degenerate test field")
	}
	if resid := math.Abs(ocnInt-atmInt) / gross; resid > 1e-12 {
		t.Errorf("conservation identity residual %.3e exceeds 1e-12", resid)
	}
	if rel := math.Abs(overlapArea-wetArea) / wetArea; rel > 1e-12 {
		t.Errorf("Σ Ã_c differs from wet area by %.3e relative", rel)
	}
}

// The regridder must be deterministic: the unmapped set (and all maps) of
// two constructions over the same grids are identical, so the
// budget.unmapped.cells gauge is stable across runs.
func TestUnmappedStableAndDisjointFromMapped(t *testing.T) {
	mesh, _ := grid.NewIcosMesh(3)
	g, _ := grid.NewTripolar(96, 48, 3)
	a, b := NewRegridder(mesh, g), NewRegridder(mesh, g)
	if len(a.Unmapped) != len(b.Unmapped) {
		t.Fatalf("unmapped count unstable: %d vs %d", len(a.Unmapped), len(b.Unmapped))
	}
	for i := range a.Unmapped {
		if a.Unmapped[i] != b.Unmapped[i] {
			t.Fatalf("unmapped set unstable at %d", i)
		}
	}
	for _, c := range a.Unmapped {
		if a.AtmToOcn[c] >= 0 {
			t.Errorf("unmapped cell %d has an ocean column", c)
		}
		if grid.IsLand(mesh.LonCell[c], mesh.LatCell[c]) {
			t.Errorf("unmapped cell %d is a land cell", c)
		}
	}
}

// Punching an artificial all-land region into the mask around a non-land
// atmosphere cell must surface that cell in Unmapped: the spiral search has
// nothing wet to reach within its ring limit, and the driver then routes
// the cell to the land model instead of dropping its fluxes.
func TestUnmappedDetectsInlandCells(t *testing.T) {
	mesh, _ := grid.NewIcosMesh(3)
	g, _ := grid.NewTripolar(360, 160, 3)

	// Find a mid-ocean atmosphere cell and dry out a block far wider than
	// the 6-ring spiral around its aligned column.
	target := -1
	for c := 0; c < mesh.NCells(); c++ {
		lon, lat := mesh.LonCell[c], mesh.LatCell[c]
		if lon < 0 {
			lon += 2 * math.Pi
		}
		if lat > -10*math.Pi/180 && lat < 10*math.Pi/180 &&
			lon > math.Pi+30*math.Pi/180 && lon < math.Pi+50*math.Pi/180 &&
			!grid.IsLand(lon, lat) {
			target = c
			break
		}
	}
	if target < 0 {
		t.Fatal("no mid-Pacific test cell found")
	}
	lon := mesh.LonCell[target]
	if lon < 0 {
		lon += 2 * math.Pi
	}
	i0 := int(lon / (2 * math.Pi) * float64(g.NX))
	j0 := nearestLatRow(g, mesh.LatCell[target])
	for dj := -9; dj <= 9; dj++ {
		for di := -9; di <= 9; di++ {
			j := j0 + dj
			if j < 0 || j >= g.NY {
				continue
			}
			i := ((i0+di)%g.NX + g.NX) % g.NX
			g.Mask[j*g.NX+i] = false
		}
	}
	r := NewRegridder(mesh, g)
	found := false
	for _, c := range r.Unmapped {
		if c == target {
			found = true
		}
	}
	if !found {
		t.Fatalf("cell %d over the dried-out region not reported unmapped (got %v)",
			target, r.Unmapped)
	}
}
