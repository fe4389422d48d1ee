package grid

import (
	"encoding/binary"
	"fmt"
	"hash"
	"hash/fnv"
	"math"
	"reflect"
	"testing"

	"repro/internal/par"
)

// feedGolden writes every number a value holds into h: integers, float bits,
// booleans, and the length of every slice, through structs and arrays and
// into unexported fields. Pointers, interfaces, maps, funcs and channels are
// skipped: they hold shared grids, communicators and observers, not output.
func feedGolden(h hash.Hash64, v reflect.Value) {
	var b [8]byte
	put := func(u uint64) {
		binary.LittleEndian.PutUint64(b[:], u)
		h.Write(b[:])
	}
	switch v.Kind() {
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		put(uint64(v.Int()))
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		put(v.Uint())
	case reflect.Float32, reflect.Float64:
		put(math.Float64bits(v.Float()))
	case reflect.Bool:
		if v.Bool() {
			put(1)
		} else {
			put(0)
		}
	case reflect.Slice, reflect.Array:
		put(uint64(v.Len()))
		for i := 0; i < v.Len(); i++ {
			feedGolden(h, v.Index(i))
		}
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			feedGolden(h, v.Field(i))
		}
	}
}

func goldenOf(vs ...any) string {
	h := fnv.New64a()
	for _, v := range vs {
		feedGolden(h, reflect.Indirect(reflect.ValueOf(v)))
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// Every array of the icosahedral mesh, bit for bit, at levels 0–5: the
// numbering of cells, edges and vertices and the order of every per-cell
// list are part of the model's output (restart layouts, halo plans, the
// regridder's tie rule), so a faster construction must reproduce them.
func TestIcosMeshGolden(t *testing.T) {
	want := []string{
		"64f7530bc49db434",
		"e7d715081881e1a3",
		"6d94c523b4c6bca2",
		"5a657af727b2899e",
		"86e5cdc3a2edd86e",
		"548d9cfa14578d9a",
	}
	for level, w := range want {
		if got := goldenOf(icosMeshViewOf(icosMesh(t, level))); got != w {
			t.Errorf("level %d: mesh hash %s, want %s", level, got, w)
		}
	}
}

// icosMeshView is what TestIcosMeshGolden pins: every array of the mesh in
// the field order and nesting the hashes were recorded in, with the per-cell
// lists cut out of the slot tables by the accessors. feedGolden writes an
// int32 or int8 as it wrote an int, so the bytes hashed are the ones the
// ragged tables gave.
type icosMeshView struct {
	Level                                        int
	CellCenter, VertexPos, EdgeMidpoint          []Vec3
	AreaCell, AreaDual, Dc, Dv, LatCell, LonCell []float64
	CellsOnEdge, VerticesOnEdge                  [][2]int32
	EdgesOnCell                                  [][]int32
	EdgeSignOnCell                               [][]int8
	CellsOnCell                                  [][]int32
	EdgesOnVertex                                [][3]int32
	EdgeSignOnVtx                                [][3]int8
	CellsOnVertex                                [][3]int32
}

func icosMeshViewOf(m *IcosMesh) icosMeshView {
	v := icosMeshView{
		m.Level, m.CellCenter, make([]Vec3, m.NVertices()), make([]Vec3, m.NEdges()),
		m.AreaCell, m.AreaDual, m.Dc, m.Dv, m.LatCell, m.LonCell,
		m.CellsOnEdge, m.VerticesOnEdge, nil, nil, nil,
		m.EdgesOnVertex, m.EdgeSignOnVtx, m.CellsOnVertex,
	}
	for vx := range v.VertexPos {
		v.VertexPos[vx] = vertexPos(m, vx)
	}
	for e := range v.EdgeMidpoint {
		v.EdgeMidpoint[e] = m.EdgeMidpoint(e)
	}
	for c := range m.NCells() {
		v.EdgesOnCell = append(v.EdgesOnCell, m.EdgesOnCell(c))
		v.EdgeSignOnCell = append(v.EdgeSignOnCell, edgeSigns(m, c))
		v.CellsOnCell = append(v.CellsOnCell, m.CellsOnCell(c))
	}
	return v
}

// icosView is what TestIcosDecompGolden pins: every list of the atmosphere
// decomposition, none of its exchange scratch.
type icosView struct {
	owner                                           []int32
	owned, ext, halo, comp, extE, recvE, verts, own []int
	inExtCell, inExtEdge                            []bool
	peers                                           []int
	cellSend, cellRecv, edgeSend, edgeRecv          [][]int
	ownedRanges                                     [][2]int
}

// icosViewOf reads the patch-local halo plans back through the patch's
// global maps, so the view holds global ids only; the derived sets and the
// membership tables of the mesh m's cells and edges come from the methods.
func icosViewOf(d *IcosDecomp, m *IcosMesh) icosView {
	inExt := func(n int, local func(int) int) []bool {
		out := make([]bool, n)
		for g := range out {
			out[g] = local(g) >= 0
		}
		return out
	}
	global := func(lists [][]int, ids []int32) [][]int {
		out := make([][]int, len(lists))
		for i, l := range lists {
			for _, x := range l {
				out[i] = append(out[i], int(ids[x]))
			}
		}
		return out
	}
	p := d.Patch
	return icosView{
		d.owner, d.Owned, extCells(d), haloCells(d), compEdges(d), extEdges(d), recvEdges(d), compVerts(d), d.OwnEdges(),
		inExt(m.NCells(), d.LocalCell), inExt(m.NEdges(), d.LocalEdge), d.Peers,
		global(d.cells.route[0].send, p.GlobalCell), global(d.cells.route[0].recv, p.GlobalCell),
		global(d.edges.route[0].send, p.GlobalEdge), global(d.edges.route[0].recv, p.GlobalEdge),
		d.ownedRanges,
	}
}

// tripolarGridView is what TestTripolarGolden pins of the ocean grid: its
// fields in the order the hashes were recorded in, with the per-column
// areas and bathymetry the grid once stored read back through CellArea and
// Column.
type tripolarGridView struct {
	NX, NY, NLevel int
	Lon, Lat, DX   []float64
	DY             float64
	Area           []float64
	Mask           []bool
	Depth          []float64
	KMT            []int
	LevelDepth     []float64
}

func tripolarGridViewOf(g *Tripolar) tripolarGridView {
	v := tripolarGridView{NX: g.NX, NY: g.NY, NLevel: g.NLevel, Lon: g.Lon, Lat: g.Lat, DX: g.DX, DY: g.DY, LevelDepth: g.LevelDepth}
	n := g.NX * g.NY
	v.Area, v.Mask, v.Depth, v.KMT = make([]float64, n), make([]bool, n), make([]float64, n), make([]int, n)
	for gi := range n {
		v.Area[gi] = g.CellArea(gi / g.NX)
		v.Mask[gi], v.Depth[gi], v.KMT[gi] = g.Column(gi)
	}
	return v
}

// tripolarView is what TestTripolarGolden pins of an ocean decomposition:
// its block geometry and its halo plan's peers and routes.
type tripolarView struct {
	I0, J0, NI, NJ, H, PBX, PBY, BNI, BNJ, bx, by int
	rankOf                                        []int
	ownedRanges                                   [][2]int
	dryBlocks                                     []DryBlock
	peers                                         []int
	route                                         [2]haloRoute
}

// The owned rows are rebuilt from the block geometry as the {start, NI}
// runs the decomposition once cached, so the recorded hashes still hold.
func tripolarViewOf(d *TripolarDecomp) tripolarView {
	rows := make([][2]int, 0, d.NJ)
	for lj := 0; lj < d.NJ; lj++ {
		rows = append(rows, [2]int{d.GIdx(0, lj), d.NI})
	}
	return tripolarView{
		d.I0, d.J0, d.NI, d.NJ, d.H, d.PBX, d.PBY, d.BNI, d.BNJ, d.bx, d.by,
		d.rankOf, rows, d.dryBlocks, d.halo.peers, d.halo.route,
	}
}

// Every list of the atmosphere decomposition — owner table, owned, halo and
// edge sets, peers and the two exchange plans' lists — on every rank, for
// 1–8 ranks on the level-3 and level-4 meshes the ladder runs.
func TestIcosDecompGolden(t *testing.T) {
	want := map[int][]string{
		3: {
			"fa2ec611d7e00611",
			"5b7c418adc590787",
			"3c4b50bdf877a96f",
			"86bce947b31e42a8",
			"498fb1efa3d08e85",
			"69fc02faa4240ab8",
			"a72933a1faeea5f3",
			"dcdafdcc0db3e87d",
		},
		4: {
			"8a599a786045bdb2",
			"ad2c4e2d9276f6a7",
			"c357523ef42eef8e",
			"8df6b9b129da6f12",
			"37d888e5b3947ab5",
			"87fc394896b1f3ee",
			"be7208aa9a763ec2",
			"b309c554f2f7835d",
		},
	}
	for level := 3; level <= 4; level++ {
		m := icosMesh(t, level)
		for ranks := 1; ranks <= 8; ranks++ {
			ds := make([]any, ranks)
			errs := make([]error, ranks)
			par.Run(ranks, func(c *par.Comm) {
				d, err := NewIcosDecomp(m, c)
				if errs[c.Rank()] = err; err == nil {
					ds[c.Rank()] = icosViewOf(d, m)
				}
			})
			if errs[0] != nil {
				t.Fatal(errs[0])
			}
			if got := goldenOf(ds...); got != want[level][ranks-1] {
				t.Errorf("level %d, %d ranks: decomposition hash %s, want %s", level, ranks, got, want[level][ranks-1])
			}
		}
	}
}

// The ocean grid and its block decomposition and halo plan at the five
// ladder sizes, on 1–4 ranks where a layout with that many wet blocks
// exists.
func TestTripolarGolden(t *testing.T) {
	want := map[[2]int][]string{
		{192, 96}: {"da3d9d21c86a9484", "0adf1aa82be969d7", "ab3aaa2572e13725", "e208af35686d1a6f", "036a541223edda8a"},
		{144, 72}: {"b00f548129d2a608", "74833a374d71d6d3", "65092c659278a959", "652a21d17cd2dadb", "2c1647ca073a30ba"},
		{96, 48}:  {"f9c31965aed34160", "1a3543569be60b01", "bc89434033dd820b", "750b92de54881de1", "0f35f566986875dc"},
		{72, 36}:  {"37e0270c5693c19e", "e17aa362c4043b5f", "cca8bbc68b6c0c03", "82f4caf723a9c903", "5f83232e2e6ce4da"},
		{48, 24}:  {"0acdccc89c6ca2cd", "c7bda9564905b96e", "aabd18147e6f13cc", "c5f18feb1d6310de", "36e38e1021c39d73"},
	}
	for size, w := range want {
		g, err := NewTripolar(size[0], size[1], 10)
		if err != nil {
			t.Fatal(err)
		}
		got := []string{goldenOf(tripolarGridViewOf(g))}
		for ranks := 1; ranks <= 4; ranks++ {
			ds := make([]any, ranks)
			errs := make([]error, ranks)
			par.Run(ranks, func(c *par.Comm) {
				d, err := NewTripolarDecomp(g, c, 1)
				if errs[c.Rank()] = err; err == nil {
					ds[c.Rank()] = tripolarViewOf(d)
				}
			})
			if errs[0] != nil {
				got = append(got, errs[0].Error())
				continue
			}
			got = append(got, goldenOf(ds...))
		}
		for i := range w {
			if got[i] != w[i] {
				t.Errorf("%dx%d: hash %d is %s, want %s", size[0], size[1], i, got[i], w[i])
			}
		}
	}
}
