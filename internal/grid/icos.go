package grid

import (
	"fmt"
	"math"
	"slices"
)

// IcosMesh is a spherical centroidal mesh built by recursive bisection of
// the icosahedron, in the cell/edge/vertex layout of the GRIST atmosphere
// model (and of MPAS-style C-grid models generally):
//
//   - Cells are the (hexagonal, plus twelve pentagonal) Voronoi regions
//     around the triangulation nodes; scalar prognostics (mass, temperature,
//     tracers) live at cell centers.
//   - Edges connect adjacent cell centers; the normal velocity component
//     lives at edge midpoints.
//   - Vertices are the triangle circumcenters (the dual mesh nodes);
//     vorticity lives at vertices.
//
// Element counts at refinement level l are Cells = 10·4^l + 2,
// Edges = 30·4^l, Vertices = 20·4^l, the closed forms that regenerate the
// atmosphere columns of Table 1.
type IcosMesh struct {
	Level int

	// Geometry (unit sphere).
	CellCenter []Vec3    // [nCells]
	AreaCell   []float64 // [nCells] steradians; sums to 4π
	AreaDual   []float64 // [nVertices] spherical triangle areas; sums to 4π
	Dc         []float64 // [nEdges] arc distance between the two cell centers
	Dv         []float64 // [nEdges] arc distance between the two vertices
	LatCell    []float64 // [nCells]
	LonCell    []float64 // [nCells]

	// Topology, each table stored once in the layout the kernels read.
	// Cell c's edges are the slots [CellStart[c], CellStart[c+1]) of the
	// three per-slot arrays, in ascending edge id; EdgesOnCell and
	// CellsOnCell return a cell's sub-slices.
	CellStart      []int32    // [nCells+1]
	SlotEdge       []int32    // [2·nEdges] the slot's edge
	SlotCell       []int32    // [2·nEdges] the cell across that edge
	SlotSign       []int8     // [2·nEdges] +1 if the edge normal points out of the cell
	CellsOnEdge    [][2]int32 // [nEdges] the two cells an edge separates, lower id first
	VerticesOnEdge [][2]int32 // [nEdges] the two dual nodes an edge connects
	EdgesOnVertex  [][3]int32 // [nVertices] the three edges meeting at a vertex, ascending
	EdgeSignOnVtx  [][3]int8  // +1 if the edge's (v1→v2) tangent circulates ccw
	CellsOnVertex  [][3]int32 // [nVertices] corner cells of the dual triangle

	// A patch (IcosDecomp.Patch) is a sub-mesh numbered in ascending global
	// id: its local cell, edge and vertex i is global GlobalCell[i],
	// GlobalEdge[i], GlobalVertex[i]. A whole mesh leaves them nil.
	GlobalCell, GlobalEdge, GlobalVertex []int32
}

// NCells returns the number of primal cells.
func (m *IcosMesh) NCells() int { return len(m.CellCenter) }

// NEdges returns the number of edges.
func (m *IcosMesh) NEdges() int { return len(m.CellsOnEdge) }

// NVertices returns the number of dual (triangle) nodes.
func (m *IcosMesh) NVertices() int { return len(m.CellsOnVertex) }

// EdgeMidpoint returns edge e's midpoint, the normalized sum of its two
// cell centers — computed, not stored: only set-up reads it. It needs both
// cells, so on a patch it serves only edges whose cells are both in the
// patch; a patch's per-edge geometry is taken from the whole mesh.
func (m *IcosMesh) EdgeMidpoint(e int) Vec3 {
	ce := m.CellsOnEdge[e]
	return m.CellCenter[ce[0]].Add(m.CellCenter[ce[1]]).Normalize()
}

// Slots returns cell c's range [lo, hi) of the per-slot arrays.
func (m *IcosMesh) Slots(c int) (lo, hi int) { return int(m.CellStart[c]), int(m.CellStart[c+1]) }

// EdgesOnCell returns cell c's 5 or 6 edges in ascending id.
func (m *IcosMesh) EdgesOnCell(c int) []int32 {
	lo, hi := m.Slots(c)
	return m.SlotEdge[lo:hi:hi]
}

// CellsOnCell returns the cells across cell c's edges, slot by slot.
func (m *IcosMesh) CellsOnCell(c int) []int32 {
	lo, hi := m.Slots(c)
	return m.SlotCell[lo:hi:hi]
}

// IcosCounts returns the closed-form element counts for refinement level l.
func IcosCounts(level int) (cells, edges, vertices int64) {
	p := int64(1) << uint(2*level) // 4^level
	return 10*p + 2, 30 * p, 20 * p
}

// icosahedron returns the 12 nodes and 20 faces of the unit icosahedron.
func icosahedron() ([]Vec3, [][3]int) {
	phi := (1 + math.Sqrt(5)) / 2
	raw := []Vec3{
		{-1, phi, 0}, {1, phi, 0}, {-1, -phi, 0}, {1, -phi, 0},
		{0, -1, phi}, {0, 1, phi}, {0, -1, -phi}, {0, 1, -phi},
		{phi, 0, -1}, {phi, 0, 1}, {-phi, 0, -1}, {-phi, 0, 1},
	}
	verts := make([]Vec3, len(raw))
	for i, v := range raw {
		verts[i] = v.Normalize()
	}
	faces := [][3]int{
		{0, 11, 5}, {0, 5, 1}, {0, 1, 7}, {0, 7, 10}, {0, 10, 11},
		{1, 5, 9}, {5, 11, 4}, {11, 10, 2}, {10, 7, 6}, {7, 1, 8},
		{3, 9, 4}, {3, 4, 2}, {3, 2, 6}, {3, 6, 8}, {3, 8, 9},
		{4, 9, 5}, {2, 4, 11}, {6, 2, 10}, {8, 6, 7}, {9, 8, 1},
	}
	return verts, faces
}

// NewIcosMesh builds the mesh at the given refinement level. Level 0 is the
// raw icosahedron (12 cells); each level quadruples the triangle count.
// Levels above 7 (163 842 cells) are rejected to avoid accidental huge
// allocations; use IcosCounts for the paper-scale configurations.
func NewIcosMesh(level int) (*IcosMesh, error) {
	if level < 0 || level > 7 {
		return nil, fmt.Errorf("grid: icosahedral level %d out of buildable range [0,7]", level)
	}
	nodes, tris := icosahedron()
	for l := 0; l < level; l++ {
		nodes, tris = subdivide(nodes, tris)
	}
	return assemble(level, nodes, tris), nil
}

// subdivide splits each triangle into four, deduplicating edge midpoints.
func subdivide(nodes []Vec3, tris [][3]int) ([]Vec3, [][3]int) {
	mid := newSideTable(len(nodes))
	midpoint := func(a, b int) int {
		id, fresh := mid.number(a, b, len(nodes))
		if fresh {
			nodes = append(nodes, nodes[a].Add(nodes[b]).Normalize())
		}
		return id
	}
	out := make([][3]int, 0, len(tris)*4)
	for _, t := range tris {
		ab := midpoint(t[0], t[1])
		bc := midpoint(t[1], t[2])
		ca := midpoint(t[2], t[0])
		out = append(out,
			[3]int{t[0], ab, ca},
			[3]int{t[1], bc, ab},
			[3]int{t[2], ca, bc},
			[3]int{ab, bc, ca},
		)
	}
	return nodes, out
}

// sideTable numbers the undirected sides of a triangulation in the order
// they are first met, without a hash map: every node keeps the neighbours
// of larger id it has been joined to, at most maxDegree of them (six on
// this mesh), each with its side's number.
type sideTable struct {
	nb, id []int32 // [maxDegree·nodes]; id -1 marks a free slot
}

const maxDegree = 6

func newSideTable(nodes int) sideTable {
	t := sideTable{make([]int32, maxDegree*nodes), make([]int32, maxDegree*nodes)}
	for i := range t.id {
		t.id[i] = -1
	}
	return t
}

// number returns the number of side (a, b); a side met for the first time
// is given next, and fresh reports that.
func (t sideTable) number(a, b, next int) (id int, fresh bool) {
	if a > b {
		a, b = b, a
	}
	for k := a * maxDegree; k < (a+1)*maxDegree; k++ {
		if t.id[k] < 0 {
			t.nb[k], t.id[k] = int32(b), int32(next)
			return next, true
		}
		if int(t.nb[k]) == b {
			return int(t.id[k]), false
		}
	}
	panic(fmt.Sprintf("grid: node %d has more than %d neighbours", a, maxDegree))
}

// assemble derives the full topology and geometry from nodes and triangles.
func assemble(level int, nodes []Vec3, tris [][3]int) *IcosMesh {
	nCells := len(nodes)
	nVerts := len(tris)

	m := &IcosMesh{
		Level:      level,
		CellCenter: nodes,
		AreaDual:   make([]float64, nVerts),
		AreaCell:   make([]float64, nCells),
		LatCell:    make([]float64, nCells),
		LonCell:    make([]float64, nCells),
	}

	// Dual nodes: triangle circumcenters (held while the mesh is built,
	// not stored) and areas. Cell areas by the barycentric split
	// (one third of each incident triangle), which conserves total sphere
	// area exactly.
	vertexPos := make([]Vec3, nVerts)
	for t, tri := range tris {
		a, b, c := nodes[tri[0]], nodes[tri[1]], nodes[tri[2]]
		vertexPos[t] = Circumcenter(a, b, c)
		area := SphericalTriangleArea(a, b, c)
		m.AreaDual[t] = area
		for _, n := range tri {
			m.AreaCell[n] += area / 3
		}
	}
	for c := range nodes {
		m.LonCell[c], m.LatCell[c] = lonlatOf(nodes[c])
	}

	// Edges: deduplicate triangle sides. Each edge records the two cells it
	// separates (lower id first) and the two triangles (dual nodes) it
	// connects, numbered in the order the triangles first meet it.
	sides := newSideTable(nCells)
	cellsOnEdge := make([][2]int32, 0, 3*nVerts/2)
	trisOnEdge := make([][2]int, 0, 3*nVerts/2)
	for t, tri := range tris {
		for s := 0; s < 3; s++ {
			a, b := tri[s], tri[(s+1)%3]
			if id, fresh := sides.number(a, b, len(cellsOnEdge)); !fresh {
				trisOnEdge[id][1] = t
			} else {
				cellsOnEdge = append(cellsOnEdge, [2]int32{int32(min(a, b)), int32(max(a, b))})
				trisOnEdge = append(trisOnEdge, [2]int{t, -1})
			}
		}
	}
	nEdges := len(cellsOnEdge)
	m.CellsOnEdge = cellsOnEdge
	m.VerticesOnEdge = make([][2]int32, nEdges)
	m.Dc = make([]float64, nEdges)
	m.Dv = make([]float64, nEdges)

	for e, ce := range cellsOnEdge {
		c1, c2 := ce[0], ce[1]
		t1, t2 := trisOnEdge[e][0], trisOnEdge[e][1]
		// Orient (v1, v2) so that v1→v2 is 90° counterclockwise from c1→c2
		// (the standard C-grid convention: positive normal from c1 to c2).
		nrm := nodes[c2].Sub(nodes[c1])
		tan := vertexPos[t2].Sub(vertexPos[t1])
		mid := m.EdgeMidpoint(e)
		if mid.Cross(nrm).Dot(tan) < 0 {
			t1, t2 = t2, t1
		}
		m.VerticesOnEdge[e] = [2]int32{int32(t1), int32(t2)}
		m.Dc[e] = GreatCircleDist(nodes[c1], nodes[c2])
		m.Dv[e] = GreatCircleDist(vertexPos[t1], vertexPos[t2])
	}

	// Cell -> edges with outward signs, and neighbouring cells: the edges
	// are visited in ascending order, so every cell's slots come out sorted
	// by edge id.
	m.CellStart = make([]int32, nCells+1)
	for _, ce := range cellsOnEdge {
		m.CellStart[ce[0]+1]++
		m.CellStart[ce[1]+1]++
	}
	for c := 0; c < nCells; c++ {
		m.CellStart[c+1] += m.CellStart[c]
	}
	m.SlotEdge, m.SlotCell, m.SlotSign = make([]int32, 2*nEdges), make([]int32, 2*nEdges), make([]int8, 2*nEdges)
	next := slices.Clone(m.CellStart[:nCells]) // per cell: its next free slot
	for e, ce := range cellsOnEdge {
		for i, c := range ce {
			s := next[c]
			next[c]++
			m.SlotEdge[s], m.SlotCell[s] = int32(e), ce[1-i]
			m.SlotSign[s] = int8(1 - 2*i) // normal c1→c2 is outward for c1
		}
	}

	// Vertex -> edges with circulation signs, and corner cells. The sign is
	// +1 when the edge-normal direction (c1 → c2) advances counterclockwise
	// around the vertex as seen from outside the sphere, so that summing
	// sign·u_e·dc_e around the dual triangle is the discrete circulation.
	m.EdgesOnVertex = make([][3]int32, nVerts)
	m.EdgeSignOnVtx = make([][3]int8, nVerts)
	m.CellsOnVertex = make([][3]int32, nVerts)
	fill := make([]int, nVerts)
	for e, ce := range cellsOnEdge {
		dir := nodes[ce[1]].Sub(nodes[ce[0]])
		for _, v := range m.VerticesOnEdge[e] {
			p := vertexPos[v]
			ccw := p.Cross(m.EdgeMidpoint(e).Sub(p))
			sign := int8(+1)
			if dir.Dot(ccw) < 0 {
				sign = -1
			}
			m.EdgesOnVertex[v][fill[v]] = int32(e)
			m.EdgeSignOnVtx[v][fill[v]] = sign
			fill[v]++
		}
	}
	for t, tri := range tris {
		m.CellsOnVertex[t] = [3]int32{int32(tri[0]), int32(tri[1]), int32(tri[2])}
	}
	return m
}

// restrict extracts the sub-mesh over ascending global cell, edge and vertex
// lists. lc and le map global cells and edges to their place in cells and
// edges (−1 outside). Local ids keep the global order, so every cell's slots,
// every edge pair and every vertex triple come out in the order the global
// mesh holds them; a neighbour outside the sub-mesh is −1. Geometry is
// copied per element: anything derived from two elements must be taken from
// the global mesh before a neighbour drops out.
func (m *IcosMesh) restrict(cells, edges, verts []int, lc, le []int32) *IcosMesh {
	lv := localIDs(verts, m.NVertices())
	gc, ge, gv := int32s(cells), int32s(edges), int32s(verts)
	p := &IcosMesh{
		Level:         m.Level,
		CellCenter:    PatchColumns(m.CellCenter, gc, 1),
		AreaCell:      PatchColumns(m.AreaCell, gc, 1),
		AreaDual:      PatchColumns(m.AreaDual, gv, 1),
		Dc:            PatchColumns(m.Dc, ge, 1),
		Dv:            PatchColumns(m.Dv, ge, 1),
		LatCell:       PatchColumns(m.LatCell, gc, 1),
		LonCell:       PatchColumns(m.LonCell, gc, 1),
		EdgeSignOnVtx: PatchColumns(m.EdgeSignOnVtx, gv, 1),
		GlobalCell:    gc,
		GlobalEdge:    ge,
		GlobalVertex:  gv,
	}
	p.CellStart = make([]int32, len(cells)+1)
	for i, c := range cells {
		lo, hi := m.Slots(c)
		p.CellStart[i+1] = p.CellStart[i] + int32(hi-lo)
	}
	ns := p.CellStart[len(cells)]
	p.SlotEdge, p.SlotCell, p.SlotSign = make([]int32, ns), make([]int32, ns), make([]int8, ns)
	for i, c := range cells {
		lo, hi := m.Slots(c)
		at := int(p.CellStart[i])
		for s := lo; s < hi; s++ {
			p.SlotEdge[at], p.SlotCell[at], p.SlotSign[at] = le[m.SlotEdge[s]], lc[m.SlotCell[s]], m.SlotSign[s]
			at++
		}
	}
	p.CellsOnEdge, p.VerticesOnEdge = make([][2]int32, len(edges)), make([][2]int32, len(edges))
	for i, e := range edges {
		ce, ve := m.CellsOnEdge[e], m.VerticesOnEdge[e]
		p.CellsOnEdge[i] = [2]int32{lc[ce[0]], lc[ce[1]]}
		p.VerticesOnEdge[i] = [2]int32{lv[ve[0]], lv[ve[1]]}
	}
	p.EdgesOnVertex, p.CellsOnVertex = make([][3]int32, len(verts)), make([][3]int32, len(verts))
	for i, v := range verts {
		for j := 0; j < 3; j++ {
			p.EdgesOnVertex[i][j] = le[m.EdgesOnVertex[v][j]]
			p.CellsOnVertex[i][j] = lc[m.CellsOnVertex[v][j]]
		}
	}
	return p
}

// localIDs maps each of n global ids to its place in the ascending list ids,
// or −1.
func localIDs(ids []int, n int) []int32 {
	l := make([]int32, n)
	for i := range l {
		l[i] = -1
	}
	for i, g := range ids {
		l[g] = int32(i)
	}
	return l
}

// PatchColumns returns a global field's share of a patch: the columns of f,
// n values each, at the patch's global ids (GlobalCell or GlobalEdge), in
// local order.
func PatchColumns[T any](f []T, ids []int32, n int) []T {
	out := make([]T, n*len(ids))
	for i, g := range ids {
		copy(out[i*n:(i+1)*n], f[int(g)*n:(int(g)+1)*n])
	}
	return out
}

func int32s(ids []int) []int32 {
	out := make([]int32, len(ids))
	for i, id := range ids {
		out[i] = int32(id)
	}
	return out
}

func lonlatOf(v Vec3) (lon, lat float64) { return lonLatPair(v) }

func lonLatPair(v Vec3) (lon, lat float64) {
	lon, lat = LonLat(v)
	return
}

// GristLevelForRes maps the paper's nominal atmosphere resolutions (km) to
// icosahedral refinement levels, matching the element counts in Table 1.
var GristLevelForRes = map[int]int{
	25: 8,
	10: 9,
	6:  10,
	3:  11,
	1:  12,
}
