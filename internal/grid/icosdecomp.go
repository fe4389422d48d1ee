package grid

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/par"
)

// IcosDecomp is the icosahedral-mesh analogue of TripolarDecomp: a
// spatially compact domain decomposition of the atmosphere's cells across
// the communicator, with precomputed halo adjacency and an allocation-free
// halo exchange over par point-to-point messages.
//
// Ownership is by recursive coordinate bisection of the cell centers (see
// rcbOwners): every cell is owned by exactly one rank, owned counts differ
// by at most one for any rank count, dividing or not, and each rank's patch
// is a compact cap or band of the sphere, so its ring-1 halo grows with the
// patch perimeter (∝ √owned) rather than with the patch. The mesh's own
// bisection-ordered numbering is left alone: fields stay in global layout
// and a rank's owned cells are a scattered ascending id list, not a range.
//
// The stencil closure of the dycore fixes the derived sets:
//
//   - ExtCells: owned cells plus the first ring of neighbours (HaloCells) —
//     where cell-centred diagnostics (tv, phi, ke, div, θ) and the
//     redundantly-computed physics columns must be valid;
//   - CompEdges: edges with at least one owned endpoint. Adjacent ranks
//     compute these redundantly from identical inputs, which keeps the
//     overlap bit-identical without any edge-tendency exchange;
//   - ExtEdges: every edge of an ExtCell — where the velocity must be valid
//     before a substep;
//   - RecvEdges: ExtEdges \ CompEdges, received from the rank that owns the
//     edge (the owner of its first cell; CellsOnEdge is normalized c1 < c2,
//     so edge ownership is well defined and identical on every rank);
//   - CompVerts: the vertices of CompEdges. Every cell and edge their
//     stencils touch lies in ExtCells/ExtEdges, so vorticity needs no
//     exchange either;
//   - OwnEdges: edges whose first cell is owned — a partition of the edge
//     set, used for restart writes.
//
// The exchange plans are built offline and symmetrically: every rank derives
// every rank's halo from the same mesh and the same ownership rule, so the
// send and receive lists of a pair agree without any negotiation traffic
// (the MCT GSMap trick applied to the mesh halo).
type IcosDecomp struct {
	M    *IcosMesh
	comm *par.Comm

	owner []int32 // [nCells] owning rank, identical on every rank
	Owned []int   // this rank's owned cells, ascending

	ExtCells  []int // owned ∪ ring-1 halo, ascending
	HaloCells []int // ring-1 halo only, ascending
	CompEdges []int // edges with ≥1 owned endpoint, ascending
	ExtEdges  []int // edges of ExtCells, ascending
	RecvEdges []int // ExtEdges \ CompEdges, ascending
	CompVerts []int // vertices of CompEdges, ascending
	OwnEdges  []int // edges with owned first cell, ascending

	inExtCell []bool
	inExtEdge []bool

	// Symmetrized peer set (ascending): the union of every rank this rank
	// exchanges cells or edges with in either direction. Both plans run over
	// it, so each exchange sends exactly one (possibly empty) message to,
	// and receives exactly one from, every peer.
	Peers []int

	cells haloPlan // owned boundary cells out, ring-1 halo cells in
	edges haloPlan // computed edges out, RecvEdges in

	ownedRanges [][2]int // Owned as {start, length} runs, cached for Decomp
}

// IcosDecomp implements the shared Decomp contract (and EdgeDecomp for its
// edge partition), so core's restart/snapshot/audit paths need no
// mesh-specific type assertions.
var (
	_ Decomp     = (*IcosDecomp)(nil)
	_ EdgeDecomp = (*IcosDecomp)(nil)
)

// HaloObserver is the instrumentation hook of the halo exchange — the
// structural subset of obs.Observer the grid layer needs, declared locally
// to keep the dependency order (obs sits above par, beside grid).
type HaloObserver interface {
	AddCount(name string, delta int64)
}

// Halo plan tags: disjoint from TripolarDecomp's 2000 and the coupler
// rearranger's 7100, so the concurrent schedule can run the atmosphere halo
// on the driver goroutine while the ocean goroutine drains its own halo
// traffic on the same mailboxes.
const (
	tagHaloCells = 6000
	tagHaloEdges = 6001
)

// NewIcosDecomp partitions the mesh across the communicator and precomputes
// the halo sets and symmetric exchange plans. Every rank must call it
// (collective only in the trivial sense: no traffic, identical offline
// construction).
func NewIcosDecomp(mesh *IcosMesh, comm *par.Comm) (*IcosDecomp, error) {
	size, rank := comm.Size(), comm.Rank()
	nc := mesh.NCells()
	if size > nc {
		return nil, fmt.Errorf("grid: %d ranks exceed %d cells", size, nc)
	}
	d := &IcosDecomp{M: mesh, comm: comm, owner: rcbOwners(mesh.CellCenter, size)}
	for c, o := range d.owner {
		if int(o) == rank {
			d.Owned = append(d.Owned, c)
		}
	}
	d.ownedRanges = Runs(d.Owned)

	owner := d.Owner
	// Ring-1 halo cells and the cell exchange plan, from one ascending pass
	// over the cells, so every list is sorted by construction. Cell c is in
	// rank r's halo when r owns a neighbour of c but not c; its owner sends
	// it to r, and both sides list it in ascending order, so the packed
	// layouts agree.
	var halo []int
	cells := newRankRoute(size)
	listed := make([]int, size) // per rank: c+1 of the last cell listed
	for c := 0; c < nc; c++ {
		oc := owner(c)
		for _, nb := range mesh.CellsOnCell(c) {
			r := owner(int(nb))
			if r == oc || listed[r] == c+1 {
				continue
			}
			listed[r] = c + 1
			if r == rank {
				halo = append(halo, c)
				cells.recvFrom[oc] = append(cells.recvFrom[oc], c)
			}
			if oc == rank {
				cells.sendTo[r] = append(cells.sendTo[r], c)
			}
		}
	}
	d.HaloCells = halo
	d.ExtCells = mergeSorted(d.Owned, d.HaloCells)
	d.inExtCell = make([]bool, nc)
	for _, c := range d.ExtCells {
		d.inExtCell[c] = true
	}

	ne := mesh.NEdges()
	// Edge sets for this rank.
	inComp := make([]bool, ne)
	for _, c := range d.Owned {
		for _, e := range mesh.EdgesOnCell(c) {
			inComp[e] = true
		}
	}
	d.inExtEdge = make([]bool, ne)
	for _, c := range d.ExtCells {
		for _, e := range mesh.EdgesOnCell(c) {
			d.inExtEdge[e] = true
		}
	}
	for e := 0; e < ne; e++ {
		if inComp[e] {
			d.CompEdges = append(d.CompEdges, e)
		}
		if d.inExtEdge[e] {
			d.ExtEdges = append(d.ExtEdges, e)
			if !inComp[e] {
				d.RecvEdges = append(d.RecvEdges, e)
			}
		}
		if owner(int(mesh.CellsOnEdge[e][0])) == rank {
			d.OwnEdges = append(d.OwnEdges, e)
		}
	}
	inCompVert := make([]bool, mesh.NVertices())
	for _, e := range d.CompEdges {
		inCompVert[mesh.VerticesOnEdge[e][0]] = true
		inCompVert[mesh.VerticesOnEdge[e][1]] = true
	}
	for v := range inCompVert {
		if inCompVert[v] {
			d.CompVerts = append(d.CompVerts, v)
		}
	}

	// Edge exchange plan: rank r's RecvEdges are the edges of r's ExtCells
	// with no endpoint owned by r; each is sent by the owner of its first
	// cell. Edge e is an edge of r's ExtCells exactly when r owns one of its
	// cells or one of their neighbours, so one ascending pass over the edges
	// derives every rank's plan from the same data: symmetric and sorted by
	// construction.
	edges := newRankRoute(size)
	seen := make([]int, size) // per rank: e+1 of the last edge it was met for
	for e, ce := range mesh.CellsOnEdge {
		src := owner(int(ce[0]))
		seen[src], seen[owner(int(ce[1]))] = e+1, e+1 // they compute e themselves
		for _, c := range ce {
			for _, nb := range mesh.CellsOnCell(int(c)) {
				r := owner(int(nb))
				if seen[r] == e+1 {
					continue
				}
				seen[r] = e + 1
				if r == rank {
					edges.recvFrom[src] = append(edges.recvFrom[src], e)
				}
				if src == rank {
					edges.sendTo[r] = append(edges.sendTo[r], e)
				}
			}
		}
	}

	// Cells are symmetric by adjacency, edges need the union with the cells.
	d.Peers = symmetricPeers(rank, cells, edges)
	d.cells = newHaloPlan(comm, tagHaloCells, d.Peers, cells, cells)
	d.edges = newHaloPlan(comm, tagHaloEdges, d.Peers, edges, edges)
	return d, nil
}

// Comm implements Decomp.
func (d *IcosDecomp) Comm() *par.Comm { return d.comm }

// NGlobal implements Decomp: the global cell count.
func (d *IcosDecomp) NGlobal() int { return d.M.NCells() }

// OwnedRanges implements Decomp: Owned as maximal {start, length} runs of
// consecutive cell ids. The slice is cached; callers must not mutate it.
func (d *IcosDecomp) OwnedRanges() [][2]int { return d.ownedRanges }

// OwnedEdgeList implements EdgeDecomp: the ascending edges whose first cell
// is owned — a partition of the edge set across ranks.
func (d *IcosDecomp) OwnedEdgeList() []int { return d.OwnEdges }

// Gather implements Decomp: it assembles the owned cells of a one-level
// global-layout cell field onto rank 0 (nil elsewhere). Each rank ships its
// values in Owned (ascending) order, so one ascending pass over the owner
// table puts every chunk back in place.
func (d *IcosDecomp) Gather(f []float64) []float64 {
	chunk := make([]float64, len(d.Owned))
	for i, c := range d.Owned {
		chunk[i] = f[c]
	}
	chunks := par.Gather(d.comm, 0, chunk)
	if d.comm.Rank() != 0 {
		return nil
	}
	out := make([]float64, len(d.owner))
	next := make([]int, len(chunks))
	for c, o := range d.owner {
		out[c] = chunks[o][next[o]]
		next[o]++
	}
	return out
}

// Owner returns the rank owning cell c.
func (d *IcosDecomp) Owner(c int) int { return int(d.owner[c]) }

// InExt reports whether cell c is in this rank's extended (owned + halo)
// region.
func (d *IcosDecomp) InExt(c int) bool { return d.inExtCell[c] }

// InExtEdge reports whether edge e is in this rank's extended edge set.
func (d *IcosDecomp) InExtEdge(e int) bool { return d.inExtEdge[e] }

// NOwned returns the number of owned cells.
func (d *IcosDecomp) NOwned() int { return len(d.Owned) }

// SetObserver attaches the halo traffic counters:
// cpl.halo.{msgs,bytes} with component="atm".
func (d *IcosDecomp) SetObserver(o HaloObserver) {
	d.cells.setObserver(o, ctrHaloMsgsAtm, ctrHaloBytesAtm)
	d.edges.setObserver(o, ctrHaloMsgsAtm, ctrHaloBytesAtm)
}

// ExchangeCells fills the ring-1 halo of a cell-centred field of nlev-value
// columns laid out [c*nlev + k]: each peer receives this rank's owned
// boundary columns and contributes the halo columns it owns. Zero
// steady-state allocations; safe concurrently with the ocean's halo traffic
// (disjoint tags).
func (d *IcosDecomp) ExchangeCells(f []float64, nlev int) {
	d.cells.exchange([]haloSlab{columns(f, nlev, 0, nlev, d.M.NCells())})
}

// ExchangeEdges fills the stale extended edges of an edge field of
// nlev-value columns laid out [e*nlev + k] from the edges' owning ranks.
func (d *IcosDecomp) ExchangeEdges(f []float64, nlev int) {
	d.ExchangeEdgeLevels(f, nlev, 0, nlev)
}

// ExchangeEdgeLevels is ExchangeEdges restricted to levels [lo, hi) of every
// column, e.g. the lowest level after the physics' surface-drag projection:
// the messages carry hi−lo values per edge.
func (d *IcosDecomp) ExchangeEdgeLevels(f []float64, nlev, lo, hi int) {
	d.edges.exchange([]haloSlab{columns(f, nlev, lo, hi, d.M.NEdges())})
}

// columns addresses levels [lo, hi) of an n-column field of nlev-value
// columns as a plan field.
func columns(f []float64, nlev, lo, hi, n int) haloSlab {
	if len(f) < nlev*n || lo < 0 || hi > nlev || lo >= hi {
		panic(fmt.Sprintf("grid: halo exchange of levels [%d, %d) on %d values, want ≥ %d in %d-level columns",
			lo, hi, len(f), nlev*n, nlev))
	}
	return haloSlab{data: f[lo:], ps: nlev, ks: 1, nlev: hi - lo}
}

// Unified per-component halo traffic counter names, in obs.Labeled's
// canonical labeled form (spelled literally here: grid sits beside obs in
// the dependency order and only sees the HaloObserver subset).
const (
	ctrHaloMsgsAtm  = `cpl.halo.msgs{component="atm"}`
	ctrHaloBytesAtm = `cpl.halo.bytes{component="atm"}`
	ctrHaloMsgsOcn  = `cpl.halo.msgs{component="ocn"}`
	ctrHaloBytesOcn = `cpl.halo.bytes{component="ocn"}`
)

// rcbOwners assigns each point to one of size ranks by recursive coordinate
// bisection: halve the rank set, order the points along the axis of largest
// extent (ties by point id, so the order is total and every rank derives the
// same table), hand the lower rank half its proportional share of them, and
// recurse. The shares are ⌊m·nl/n⌋ of m points for nl of n ranks, which
// keeps every rank within one point of pts/size at any depth.
func rcbOwners(pts []Vec3, size int) []int32 {
	owner := make([]int32, len(pts))
	ids := make([]int, len(pts))
	for i := range ids {
		ids[i] = i
	}
	var split func(ids []int, r0, n int)
	split = func(ids []int, r0, n int) {
		if n == 1 {
			for _, id := range ids {
				owner[id] = int32(r0)
			}
			return
		}
		lo, hi := pts[ids[0]], pts[ids[0]]
		for _, id := range ids[1:] {
			p := pts[id]
			lo = Vec3{math.Min(lo.X, p.X), math.Min(lo.Y, p.Y), math.Min(lo.Z, p.Z)}
			hi = Vec3{math.Max(hi.X, p.X), math.Max(hi.Y, p.Y), math.Max(hi.Z, p.Z)}
		}
		ext := hi.Sub(lo)
		axis, widest := func(p Vec3) float64 { return p.X }, ext.X
		if ext.Y > widest {
			axis, widest = func(p Vec3) float64 { return p.Y }, ext.Y
		}
		if ext.Z > widest {
			axis = func(p Vec3) float64 { return p.Z }
		}
		sort.Slice(ids, func(i, j int) bool {
			a, b := axis(pts[ids[i]]), axis(pts[ids[j]])
			return a < b || (a == b && ids[i] < ids[j])
		})
		nl := n / 2
		cut := len(ids) * nl / n
		split(ids[:cut], r0, nl)
		split(ids[cut:], r0+nl, n-nl)
	}
	split(ids, 0, size)
	return owner
}

// Runs returns an ascending id list as maximal {start, length} runs of
// consecutive ids — the contiguous chunks a scattered owned set contributes
// to a global-layout array (restart and snapshot writes, OwnedRanges).
func Runs(ids []int) [][2]int {
	var runs [][2]int
	for i := 0; i < len(ids); {
		j := i + 1
		for j < len(ids) && ids[j] == ids[j-1]+1 {
			j++
		}
		runs = append(runs, [2]int{ids[i], j - i})
		i = j
	}
	return runs
}

// mergeSorted merges two ascending, disjoint int slices.
func mergeSorted(a, b []int) []int {
	out := make([]int, 0, len(a)+len(b))
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		if a[i] < b[j] {
			out = append(out, a[i])
			i++
		} else {
			out = append(out, b[j])
			j++
		}
	}
	out = append(out, a[i:]...)
	return append(out, b[j:]...)
}
