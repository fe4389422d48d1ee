package grid

import (
	"math"
	"reflect"
	"slices"
	"testing"
	"testing/quick"
)

func TestIcosCountsClosedForm(t *testing.T) {
	// Level 0 is the icosahedron itself.
	c, e, v := IcosCounts(0)
	if c != 12 || e != 30 || v != 20 {
		t.Fatalf("level 0 counts = %d/%d/%d", c, e, v)
	}
	// Paper-scale levels (Table 1 atmosphere rows).
	cases := []struct {
		resKm int
		cells float64 // paper's rounded values (hex-cell convention)
		edges float64
		verts float64
	}{
		{25, 6.7e5, 2.0e6, 1.3e6},
		{10, 2.6e6, 7.9e6, 5.2e6},
		{6, 1.1e7, 3.2e7, 2.1e7},
		{3, 4.2e7, 1.3e8, 8.4e7},
	}
	for _, tc := range cases {
		lvl := GristLevelForRes[tc.resKm]
		c, e, v := IcosCounts(lvl)
		for _, chk := range []struct {
			got  int64
			want float64
		}{{c, tc.cells}, {e, tc.edges}, {v, tc.verts}} {
			if math.Abs(float64(chk.got)-chk.want)/chk.want > 0.05 {
				t.Errorf("res %d km level %d: got %d, paper %g", tc.resKm, lvl, chk.got, chk.want)
			}
		}
	}
	// 1 km row: the paper prints the dual (triangle) convention — cells and
	// vertices swapped.
	c, e, v = IcosCounts(GristLevelForRes[1])
	if math.Abs(float64(v)-3.4e8)/3.4e8 > 0.05 {
		t.Errorf("1 km: paper cells 3.4e8 vs our vertices %d", v)
	}
	if math.Abs(float64(e)-5.0e8)/5.0e8 > 0.05 {
		t.Errorf("1 km: paper edges 5.0e8 vs our edges %d", e)
	}
	if math.Abs(float64(c)-1.7e8)/1.7e8 > 0.05 {
		t.Errorf("1 km: paper vertices 1.7e8 vs our cells %d", c)
	}
}

func TestMeshCountsMatchFormulas(t *testing.T) {
	for lvl := 0; lvl <= 4; lvl++ {
		m, err := NewIcosMesh(lvl)
		if err != nil {
			t.Fatal(err)
		}
		wc, we, wv := IcosCounts(lvl)
		if int64(m.NCells()) != wc || int64(m.NEdges()) != we || int64(m.NVertices()) != wv {
			t.Errorf("level %d: %d/%d/%d, want %d/%d/%d",
				lvl, m.NCells(), m.NEdges(), m.NVertices(), wc, we, wv)
		}
	}
}

func TestMeshEulerCharacteristic(t *testing.T) {
	// Property over buildable levels: V - E + F = 2 for the sphere.
	f := func(raw uint8) bool {
		lvl := int(raw % 5)
		m, err := NewIcosMesh(lvl)
		if err != nil {
			return false
		}
		return m.NCells()-m.NEdges()+m.NVertices() == 2
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 10}); err != nil {
		t.Error(err)
	}
}

func TestMeshAreasCoverSphere(t *testing.T) {
	m, err := NewIcosMesh(3)
	if err != nil {
		t.Fatal(err)
	}
	var cellSum, dualSum float64
	for _, a := range m.AreaCell {
		if a <= 0 {
			t.Fatal("non-positive cell area")
		}
		cellSum += a
	}
	for _, a := range m.AreaDual {
		if a <= 0 {
			t.Fatal("non-positive dual area")
		}
		dualSum += a
	}
	if math.Abs(cellSum-4*math.Pi) > 1e-9 {
		t.Errorf("cell areas sum to %v, want 4π", cellSum)
	}
	if math.Abs(dualSum-4*math.Pi) > 1e-9 {
		t.Errorf("dual areas sum to %v, want 4π", dualSum)
	}
}

func TestMeshTopologyConsistency(t *testing.T) {
	m, err := NewIcosMesh(2)
	if err != nil {
		t.Fatal(err)
	}
	// Twelve pentagons, the rest hexagons.
	pent := 0
	for c := range m.NCells() {
		switch len(m.EdgesOnCell(c)) {
		case 5:
			pent++
		case 6:
		default:
			t.Fatalf("cell %d has %d edges", c, len(m.EdgesOnCell(c)))
		}
		// Edge/cell cross-references agree.
		for k, e := range m.EdgesOnCell(c) {
			c1, c2 := int(m.CellsOnEdge[e][0]), int(m.CellsOnEdge[e][1])
			if c1 != c && c2 != c {
				t.Fatalf("edge %d not incident to cell %d", e, c)
			}
			other := c1
			if c1 == c {
				other = c2
			}
			if int(m.CellsOnCell(c)[k]) != other {
				t.Fatalf("CellsOnCell mismatch at cell %d slot %d", c, k)
			}
			sign := edgeSigns(m, c)[k]
			if (c1 == c && sign != 1) || (c2 == c && sign != -1) {
				t.Fatalf("bad outward sign at cell %d edge %d", c, e)
			}
		}
	}
	if pent != 12 {
		t.Errorf("%d pentagons, want 12", pent)
	}
	// Every edge appears on exactly two cells and two vertices.
	edgeCellCount := make([]int, m.NEdges())
	for c := range m.NCells() {
		for _, e := range m.EdgesOnCell(c) {
			edgeCellCount[e]++
		}
	}
	for e, n := range edgeCellCount {
		if n != 2 {
			t.Fatalf("edge %d on %d cells", e, n)
		}
	}
	edgeVtxCount := make([]int, m.NEdges())
	for v := range m.EdgesOnVertex {
		for _, e := range m.EdgesOnVertex[v] {
			edgeVtxCount[e]++
		}
	}
	for e, n := range edgeVtxCount {
		if n != 2 {
			t.Fatalf("edge %d on %d vertices", e, n)
		}
	}
}

// The cell slots, edge pairs and vertex triples are the triangulation, at
// levels 0–5: checked against the triangles rebuilt here, so a kernel that
// reads the tables in place reads the mesh. Every cell's slots are its
// edges in ascending id; a slot's sign is +1 exactly when the cell is its
// edge's first cell, and its neighbour is the edge's other cell; every
// vertex's corner cells are its triangle, its edges are the triangle's
// sides in ascending id, and each of those edges names it in
// VerticesOnEdge.
func TestCellSlotsAreTheMesh(t *testing.T) {
	for level := 0; level <= 5; level++ {
		m := icosMesh(t, level)
		nodes, tris := icosahedron()
		for l := 0; l < level; l++ {
			nodes, tris = subdivide(nodes, tris)
		}
		nc, ne := m.NCells(), m.NEdges()
		if len(nodes) != nc || len(tris) != m.NVertices() {
			t.Fatalf("level %d: %d cells, %d vertices; triangulation has %d nodes, %d triangles",
				level, nc, m.NVertices(), len(nodes), len(tris))
		}
		edgeOf := make(map[[2]int32]int32, ne)
		for e, ce := range m.CellsOnEdge {
			if ce[0] >= ce[1] {
				t.Fatalf("level %d edge %d: cells %v not lower id first", level, e, ce)
			}
			edgeOf[ce] = int32(e)
		}
		// Each cell's edges and each edge's triangles, from the triangles' sides.
		cellEdges := make([][]int32, nc)
		edgeTris := make([][]int32, ne)
		for v, tri := range tris {
			var sides [3]int32
			for s := range sides {
				a, b := int32(tri[s]), int32(tri[(s+1)%3])
				e, ok := edgeOf[[2]int32{min(a, b), max(a, b)}]
				if !ok {
					t.Fatalf("level %d: triangle side %d–%d is no edge", level, a, b)
				}
				sides[s] = e
				edgeTris[e] = append(edgeTris[e], int32(v))
				for _, c := range []int32{a, b} {
					if !slices.Contains(cellEdges[c], e) {
						cellEdges[c] = append(cellEdges[c], e)
					}
				}
			}
			slices.Sort(sides[:])
			if m.EdgesOnVertex[v] != sides {
				t.Fatalf("level %d vertex %d: edges %v, triangle sides %v", level, v, m.EdgesOnVertex[v], sides)
			}
			if want := [3]int32{int32(tri[0]), int32(tri[1]), int32(tri[2])}; m.CellsOnVertex[v] != want {
				t.Fatalf("level %d vertex %d: corner cells %v, triangle %v", level, v, m.CellsOnVertex[v], want)
			}
			for j, e := range sides {
				if ve := m.VerticesOnEdge[e]; ve[0] != int32(v) && ve[1] != int32(v) {
					t.Fatalf("level %d vertex %d: edge %d joins vertices %v", level, v, e, ve)
				}
				if sg := m.EdgeSignOnVtx[v][j]; sg != 1 && sg != -1 {
					t.Fatalf("level %d vertex %d: sign %d", level, v, sg)
				}
			}
		}
		for e, ts := range edgeTris {
			slices.Sort(ts)
			ve := m.VerticesOnEdge[e]
			if len(ts) != 2 || min(ve[0], ve[1]) != ts[0] || max(ve[0], ve[1]) != ts[1] {
				t.Fatalf("level %d edge %d: vertices %v, triangles %v", level, e, ve, ts)
			}
		}

		if len(m.CellStart) != nc+1 || m.CellStart[0] != 0 || int(m.CellStart[nc]) != 2*ne ||
			len(m.SlotEdge) != 2*ne || len(m.SlotCell) != 2*ne || len(m.SlotSign) != 2*ne {
			t.Fatalf("level %d: slot tables sized %d/%d/%d/%d for %d cells, %d edges",
				level, len(m.CellStart), len(m.SlotEdge), len(m.SlotCell), len(m.SlotSign), nc, ne)
		}
		for c, want := range cellEdges {
			slices.Sort(want)
			edges, nbrs, signs := m.EdgesOnCell(c), m.CellsOnCell(c), edgeSigns(m, c)
			if !slices.Equal(edges, want) || len(nbrs) != len(want) || len(signs) != len(want) {
				t.Fatalf("level %d cell %d: slots %v / %v / %v, edges %v", level, c, edges, nbrs, signs, want)
			}
			for j, e := range edges {
				ce := m.CellsOnEdge[e]
				want := int8(-1)
				if ce[0] == int32(c) {
					want = 1
				}
				if signs[j] != want {
					t.Fatalf("level %d cell %d slot %d: sign %d, edge cells %v", level, c, j, signs[j], ce)
				}
				if other := ce[0] + ce[1] - int32(c); nbrs[j] != other {
					t.Fatalf("level %d cell %d slot %d: neighbour %d, edge cells %v", level, c, j, nbrs[j], ce)
				}
			}
		}
	}
}

// topologyBytes is the heap behind v's integer tables: every slice, array
// and nested slice whose innermost element is an integer, backing arrays and
// inner slice headers counted, the top-level headers (which live in v) not.
func topologyBytes(v reflect.Value) int {
	isInt := func(t reflect.Type) bool {
		for t.Kind() == reflect.Slice || t.Kind() == reflect.Array {
			t = t.Elem()
		}
		return t.Kind() >= reflect.Int && t.Kind() <= reflect.Uint64
	}
	var backing func(s reflect.Value) int
	backing = func(s reflect.Value) int {
		n := s.Len() * int(s.Type().Elem().Size())
		if s.Type().Elem().Kind() == reflect.Slice {
			for i := range s.Len() {
				n += backing(s.Index(i))
			}
		}
		return n
	}
	n := 0
	for i := range v.NumField() {
		if f := v.Field(i); f.Kind() == reflect.Slice && isInt(f.Type()) {
			n += backing(f)
		}
	}
	return n
}

// The mesh's topology costs under 200 bytes per cell on the ladder's two
// atmosphere levels (≈160 in int32 slot tables; ragged []int lists with a
// slice header per cell were ≈456), so a second or wider copy fails here.
func TestMeshTopologyBytesPerCell(t *testing.T) {
	for _, level := range []int{3, 4} {
		m := icosMesh(t, level)
		perCell := float64(topologyBytes(reflect.ValueOf(*m))) / float64(m.NCells())
		t.Logf("level %d: %.0f topology bytes per cell", level, perCell)
		if perCell > 200 {
			t.Errorf("level %d: mesh topology holds %.0f B per cell, want ≤ 200", level, perCell)
		}
	}
}

func TestMeshGeometryPositive(t *testing.T) {
	m, err := NewIcosMesh(3)
	if err != nil {
		t.Fatal(err)
	}
	for e := range m.Dc {
		if m.Dc[e] <= 0 || m.Dv[e] <= 0 {
			t.Fatalf("edge %d: dc=%v dv=%v", e, m.Dc[e], m.Dv[e])
		}
	}
	// Unit-vector invariants.
	for v := range m.NVertices() {
		if math.Abs(vertexPos(m, v).Norm()-1) > 1e-12 {
			t.Fatal("vertex not on unit sphere")
		}
	}
	// Resolution decreases by ~2x per level: the mean distance between
	// adjacent cell centers halves.
	mean := func(x []float64) float64 {
		var sum float64
		for _, v := range x {
			sum += v
		}
		return sum / float64(len(x))
	}
	m2, _ := NewIcosMesh(2)
	r2, r3 := mean(m2.Dc), mean(m.Dc)
	if r2/r3 < 1.8 || r2/r3 > 2.2 {
		t.Errorf("spacing ratio %v, want ~2", r2/r3)
	}
}

// The discrete curl of a discrete gradient must vanish identically: for any
// cell scalar h, circulation of grad(h) around every dual triangle is a
// telescoping sum. This validates the edge orientation conventions that the
// dycore depends on.
func TestCurlOfGradientIsZero(t *testing.T) {
	m, err := NewIcosMesh(3)
	if err != nil {
		t.Fatal(err)
	}
	h := make([]float64, m.NCells())
	for c := range h {
		h[c] = math.Sin(3*m.LonCell[c]) * math.Cos(2*m.LatCell[c])
	}
	gradE := make([]float64, m.NEdges())
	for e := range gradE {
		c1, c2 := m.CellsOnEdge[e][0], m.CellsOnEdge[e][1]
		gradE[e] = (h[c2] - h[c1]) / m.Dc[e]
	}
	for v := range m.EdgesOnVertex {
		var circ float64
		for k := 0; k < 3; k++ {
			e := m.EdgesOnVertex[v][k]
			circ += float64(m.EdgeSignOnVtx[v][k]) * gradE[e] * m.Dc[e]
		}
		if math.Abs(circ) > 1e-12 {
			t.Fatalf("vertex %d: curl(grad) = %v", v, circ)
		}
	}
}

// The discrete divergence theorem: the area-weighted sum of div(u) over all
// cells is zero for any edge field u, because each edge contributes with
// opposite signs to its two cells.
func TestGlobalDivergenceIsZero(t *testing.T) {
	m, err := NewIcosMesh(3)
	if err != nil {
		t.Fatal(err)
	}
	u := make([]float64, m.NEdges())
	for e := range u {
		lon, lat := LonLat(m.EdgeMidpoint(e))
		u[e] = math.Sin(5*lon) + math.Cos(3*lat)
	}
	var total float64
	for c := range m.NCells() {
		var div float64
		for k, e := range m.EdgesOnCell(c) {
			div += float64(edgeSigns(m, c)[k]) * u[e] * m.Dv[e]
		}
		total += div // area cancels: div_c = div/A_c, weight by A_c
	}
	if math.Abs(total) > 1e-9 {
		t.Errorf("global divergence = %v", total)
	}
}

func TestNewIcosMeshRejectsBadLevels(t *testing.T) {
	if _, err := NewIcosMesh(-1); err == nil {
		t.Error("negative level accepted")
	}
	if _, err := NewIcosMesh(8); err == nil {
		t.Error("level 8 accepted (would allocate ~1M cells)")
	}
}

func TestSphereHelpers(t *testing.T) {
	a := Vec3{1, 0, 0}
	b := Vec3{0, 1, 0}
	if d := GreatCircleDist(a, b); math.Abs(d-math.Pi/2) > 1e-14 {
		t.Errorf("dist = %v", d)
	}
	// Octant triangle has area π/2.
	c := Vec3{0, 0, 1}
	if ar := SphericalTriangleArea(a, b, c); math.Abs(ar-math.Pi/2) > 1e-12 {
		t.Errorf("area = %v", ar)
	}
	cc := Circumcenter(a, b, c)
	want := Vec3{1, 1, 1}.Normalize()
	if cc.Sub(want).Norm() > 1e-12 {
		t.Errorf("circumcenter = %v", cc)
	}
	lon, lat := LonLat(FromLonLat(1.0, 0.5))
	if math.Abs(lon-1.0) > 1e-14 || math.Abs(lat-0.5) > 1e-14 {
		t.Errorf("lonlat roundtrip: %v %v", lon, lat)
	}
}

func TestLonLatRoundTripProperty(t *testing.T) {
	f := func(lonRaw, latRaw float64) bool {
		lon := math.Mod(math.Abs(lonRaw), 2*math.Pi) - math.Pi
		lat := math.Mod(math.Abs(latRaw), math.Pi) - math.Pi/2
		l2, la2 := LonLat(FromLonLat(lon, lat))
		// Longitude is degenerate at the poles.
		if math.Abs(math.Abs(lat)-math.Pi/2) < 1e-9 {
			return math.Abs(la2-lat) < 1e-9
		}
		return math.Abs(la2-lat) < 1e-9 && math.Abs(math.Mod(l2-lon+3*math.Pi, 2*math.Pi)-math.Pi) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// TestIcosMeshIsDelaunay checks the empty-circumcircle property locally on
// every edge: the cell opposite an edge in one triangle lies outside the
// circumcircle of the other, i.e. its centre's dot product with that
// triangle's circumcenter is below the triangle's own corners'. Locally
// Delaunay on every edge is Delaunay, which is what makes a greedy walk to
// the nearest cell centre (core's regridder) exact from any start.
func TestIcosMeshIsDelaunay(t *testing.T) {
	for level := 0; level <= 6; level++ {
		m := icosMesh(t, level)
		margin := math.Inf(1)
		for e, vs := range m.VerticesOnEdge {
			ce := m.CellsOnEdge[e]
			for k, v := range vs {
				opp := int32(-1)
				for _, c := range m.CellsOnVertex[vs[1-k]] {
					if c != ce[0] && c != ce[1] {
						opp = c
					}
				}
				if opp < 0 {
					t.Fatalf("level %d edge %d: no opposite corner", level, e)
				}
				cc := vertexPos(m, int(v))
				r := cc.Dot(m.CellCenter[ce[0]]) // the circumcircle's cos-radius
				margin = min(margin, r-cc.Dot(m.CellCenter[opp]))
			}
		}
		// Not merely Delaunay: the closest opposite corner is ≈0.31·dc²
		// outside at every level, far beyond round-off, so the mesh has no
		// four cocircular centres and no point ties more than three cells.
		dc := m.Dc[0]
		if margin <= 0.1*dc*dc {
			t.Errorf("level %d: smallest empty-circle margin %.3g (cell spacing %.3g)", level, margin, dc)
		}
		t.Logf("level %d: smallest empty-circle margin %.3g = %.3g·dc²", level, margin, margin/(dc*dc))
	}
}

// vertexPos returns dual node v's position, the circumcenter of its dual
// triangle's corner cells.
func vertexPos(m *IcosMesh, v int) Vec3 {
	cv := m.CellsOnVertex[v]
	return Circumcenter(m.CellCenter[cv[0]], m.CellCenter[cv[1]], m.CellCenter[cv[2]])
}

// edgeSigns returns the outward signs of cell c's edges, slot by slot.
func edgeSigns(m *IcosMesh, c int) []int8 {
	lo, hi := m.Slots(c)
	return m.SlotSign[lo:hi:hi]
}
