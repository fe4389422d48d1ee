package grid

import (
	"cmp"
	"fmt"
	"math"
	"slices"

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
// bisection-ordered numbering is left alone, so a rank's owned cells are a
// scattered ascending id list, not a range.
//
// Each rank stores only its patch: Patch is an ordinary IcosMesh over the
// rank's ExtCells, ExtEdges and CompVerts, with local ids assigned in
// ascending global id and GlobalCell/GlobalEdge/GlobalVertex mapping them
// back. Ascending numbering keeps every cell's slot order, every owned-cell
// reduction order and every halo message layout of the global numbering,
// and a run of consecutive owned global ids is a run of consecutive local
// ids. The halo plans and the two sweep lists OwnedLocal and CompEdgesLocal
// are in local ids. The decomposition keeps no reference to the global
// mesh and nothing of global size: which patch cells this rank owns is a
// patch-local flag (Owns), and Gather places every rank's chunk by the
// owned ids that travel with it. Only the standalone NewIcosDecomp also
// keeps the owner table of the whole mesh, which Owner reads. The sets
// below are no stored lists: ExtCells, ExtEdges and CompVerts are the
// patch's own cells, edges and vertices, CompEdges and RecvEdges split the
// patch's edges by CompEdgesLocal, HaloCells are the patch cells this rank
// does not own, and OwnEdges derives the restart partition on demand.
// LocalCell/LocalEdge are binary searches over the patch's ascending global
// ids (set-up and restart read them, no step does).
//
// The stencil closure of the dycore fixes the patch:
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
// every rank's halo from the same mesh and the same owner table, so the
// send and receive lists of a pair agree without any negotiation traffic
// (the MCT GSMap trick applied to the mesh halo). The whole mesh and the
// owner table are read only while the decomposition is built.
type IcosDecomp struct {
	Patch *IcosMesh // this rank's cells, edges and vertices, in local ids
	comm  *par.Comm

	own   []bool  // per patch cell: owned by this rank
	owner []int32 // NewIcosDecomp only: the owning rank of every cell of the mesh
	Owned []int   // this rank's owned cells, ascending

	// The sweep sets that are not the whole patch, in local ids: owned
	// cells and computed edges, ascending.
	OwnedLocal     []int
	CompEdgesLocal []int

	// Symmetrized peer set (ascending): the union of every rank this rank
	// exchanges cells or edges with in either direction. Both plans run over
	// it, so each exchange sends exactly one (possibly empty) message to,
	// and receives exactly one from, every peer.
	Peers []int

	cells haloPlan // owned boundary cells out, ring-1 halo cells in (local ids)
	edges haloPlan // computed edges out, RecvEdges in (local ids)

	ownedRanges [][2]int // Owned as {start, length} runs, cached
}

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

// IcosOwners partitions the mesh's cells over size ranks (rcbOwners): the
// owning rank of every cell, identical on every rank. A model's set-up
// holds it only while it builds the decomposition and the coupling plan.
func IcosOwners(mesh *IcosMesh, size int) []int32 { return rcbOwners(mesh.CellCenter, size) }

// NewIcosDecomp partitions the mesh across the communicator (IcosOwners)
// and builds this rank's decomposition of it (NewPatchDecomp), keeping the
// owner table so that Owner answers for every cell of the mesh: the
// standalone form, for code that partitions a mesh on its own. Every rank
// must call it.
func NewIcosDecomp(mesh *IcosMesh, comm *par.Comm) (*IcosDecomp, error) {
	if comm.Size() > mesh.NCells() {
		return nil, fmt.Errorf("grid: %d ranks exceed %d cells", comm.Size(), mesh.NCells())
	}
	owner := IcosOwners(mesh, comm.Size())
	d, err := NewPatchDecomp(mesh, owner, comm)
	if err != nil {
		return nil, err
	}
	d.owner = owner
	return d, nil
}

// NewPatchDecomp extracts this rank's patch of the mesh under the owner
// table owner (IcosOwners over the communicator's size) and precomputes the
// halo sets and symmetric exchange plans. Every rank must call it
// (collective only in the trivial sense: no traffic, identical offline
// construction). The decomposition keeps no reference to mesh or owner.
func NewPatchDecomp(mesh *IcosMesh, owner []int32, comm *par.Comm) (*IcosDecomp, error) {
	size, rank := comm.Size(), comm.Rank()
	nc := mesh.NCells()
	if size > nc {
		return nil, fmt.Errorf("grid: %d ranks exceed %d cells", size, nc)
	}
	if len(owner) != nc {
		return nil, fmt.Errorf("grid: owner table of %d cells for a mesh of %d", len(owner), nc)
	}
	d := &IcosDecomp{comm: comm}
	for c, o := range owner {
		if int(o) == rank {
			d.Owned = append(d.Owned, c)
		}
	}
	d.ownedRanges = Runs(d.Owned)

	ownerOf := func(c int) int { return int(owner[c]) }
	// Ring-1 halo cells and the cell exchange plan, from one ascending pass
	// over the cells, so every list is sorted by construction. Cell c is in
	// rank r's halo when r owns a neighbour of c but not c; its owner sends
	// it to r, and both sides list it in ascending order, so the packed
	// layouts agree.
	var halo []int
	cells := newRankRoute(size)
	listed := make([]int, size) // per rank: c+1 of the last cell listed
	for c := 0; c < nc; c++ {
		oc := ownerOf(c)
		for _, nb := range mesh.CellsOnCell(c) {
			r := ownerOf(int(nb))
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
	extCells := mergeSorted(d.Owned, halo)

	// The edge sets, ascending: computed edges (an owned endpoint),
	// extended edges (an edge of an extended cell) and the vertices of the
	// computed edges, each read off a mark table in one ascending pass.
	ne, nv := mesh.NEdges(), mesh.NVertices()
	const inComp, inExt = 1, 2
	mark := make([]uint8, max(ne, nv))
	for _, c := range d.Owned {
		for _, e := range mesh.EdgesOnCell(c) {
			mark[e] |= inComp
		}
	}
	for _, c := range extCells {
		for _, e := range mesh.EdgesOnCell(c) {
			mark[e] |= inExt
		}
	}
	compEdges, extEdges := marked(mark[:ne], inComp), marked(mark[:ne], inExt)
	clear(mark)
	for _, e := range compEdges {
		mark[mesh.VerticesOnEdge[e][0]], mark[mesh.VerticesOnEdge[e][1]] = inComp, inComp
	}
	compVerts := marked(mark[:nv], inComp)

	// Edge exchange plan: rank r's RecvEdges are the edges of r's ExtCells
	// with no endpoint owned by r; each is sent by the owner of its first
	// cell. Edge e is an edge of r's ExtCells exactly when r owns one of its
	// cells or one of their neighbours, so one ascending pass over the edges
	// derives every rank's plan from the same data: symmetric and sorted by
	// construction.
	edges := newRankRoute(size)
	seen := make([]int, size) // per rank: e+1 of the last edge it was met for
	for e, ce := range mesh.CellsOnEdge {
		src := ownerOf(int(ce[0]))
		seen[src], seen[ownerOf(int(ce[1]))] = e+1, e+1 // they compute e themselves
		for _, c := range ce {
			for _, nb := range mesh.CellsOnCell(int(c)) {
				r := ownerOf(int(nb))
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

	// The patch, and every list the model sweeps or exchanges in its local
	// ids: ascending global lists stay ascending. The global-size local-id
	// tables live only while the patch is cut out.
	localCell, localEdge := localIDs(extCells, nc), localIDs(extEdges, ne)
	d.Patch = mesh.restrict(extCells, extEdges, compVerts, localCell, localEdge)
	d.OwnedLocal = localized(d.Owned, localCell)
	d.own = make([]bool, len(extCells))
	for _, lc := range d.OwnedLocal {
		d.own[lc] = true
	}
	d.CompEdgesLocal = localized(compEdges, localEdge)
	for r := range cells.sendTo {
		cells.sendTo[r], cells.recvFrom[r] = localized(cells.sendTo[r], localCell), localized(cells.recvFrom[r], localCell)
		edges.sendTo[r], edges.recvFrom[r] = localized(edges.sendTo[r], localEdge), localized(edges.recvFrom[r], localEdge)
	}

	// Cells are symmetric by adjacency, edges need the union with the cells.
	d.Peers = symmetricPeers(rank, cells, edges)
	d.cells = newHaloPlan(comm, tagHaloCells, d.Peers, cells, cells)
	d.edges = newHaloPlan(comm, tagHaloEdges, d.Peers, edges, edges)
	return d, nil
}

// localized maps a list of global ids through a local-id table.
func localized(ids []int, local []int32) []int {
	out := make([]int, len(ids))
	for i, g := range ids {
		out[i] = int(local[g])
	}
	return out
}

// marked returns, ascending, the ids whose mark has the bit set.
func marked(mark []uint8, bit uint8) []int {
	n := 0
	for _, m := range mark {
		if m&bit != 0 {
			n++
		}
	}
	out := make([]int, 0, n)
	for id, m := range mark {
		if m&bit != 0 {
			out = append(out, id)
		}
	}
	return out
}

// Comm returns the communicator the decomposition spans.
func (d *IcosDecomp) Comm() *par.Comm { return d.comm }

// OwnedRanges returns Owned as maximal {start, length} runs of consecutive
// cell ids. The slice is cached; callers must not mutate it.
func (d *IcosDecomp) OwnedRanges() [][2]int { return d.ownedRanges }

// ownedChunk is one rank's share of a Gather: its owned cells' values and
// their global ids.
type ownedChunk struct {
	ids  []int
	vals []float64
}

// Gather assembles the owned cells of a one-level patch cell field onto
// rank 0 (nil elsewhere) as a global-layout array. Collective. Each rank
// ships its values with its owned ids, which put every chunk in place; the
// owned sets partition the mesh, so together they cover it.
func (d *IcosDecomp) Gather(f []float64) []float64 {
	chunk := make([]float64, len(d.OwnedLocal))
	for i, c := range d.OwnedLocal {
		chunk[i] = f[c]
	}
	chunks := par.Gather(d.comm, 0, ownedChunk{d.Owned, chunk})
	if d.comm.Rank() != 0 {
		return nil
	}
	n := 0
	for _, ch := range chunks {
		n += len(ch.ids)
	}
	out := make([]float64, n)
	for _, ch := range chunks {
		for i, c := range ch.ids {
			out[c] = ch.vals[i]
		}
	}
	return out
}

// Owner returns the rank owning cell c. Only a decomposition built by
// NewIcosDecomp holds the owner table it reads; a model's (NewPatchDecomp)
// knows its own cells only (Owns).
func (d *IcosDecomp) Owner(c int) int { return int(d.owner[c]) }

// Owns reports whether this rank owns the patch cell with local id lc.
func (d *IcosDecomp) Owns(lc int) bool { return d.own[lc] }

// OwnEdges returns the edges whose first cell is owned, ascending: the
// edges this rank writes to a restart.
func (d *IcosDecomp) OwnEdges() []int {
	var out []int
	p := d.Patch
	for le, e := range p.GlobalEdge {
		if c := p.CellsOnEdge[le][0]; c >= 0 && d.own[c] {
			out = append(out, int(e))
		}
	}
	return out
}

// LocalCell returns global cell c's id in the patch, or −1 outside it.
func (d *IcosDecomp) LocalCell(c int) int { return localOf(d.Patch.GlobalCell, c) }

// LocalEdge returns global edge e's id in the patch, or −1 outside it.
func (d *IcosDecomp) LocalEdge(e int) int { return localOf(d.Patch.GlobalEdge, e) }

// localOf returns the place of global id g in the ascending list ids, or −1.
func localOf(ids []int32, g int) int {
	if i, ok := slices.BinarySearch(ids, int32(g)); ok {
		return i
	}
	return -1
}

// NOwned returns the number of owned cells.
func (d *IcosDecomp) NOwned() int { return len(d.Owned) }

// SetObserver attaches the halo traffic counters:
// cpl.halo.{msgs,bytes} with component="atm".
func (d *IcosDecomp) SetObserver(o HaloObserver) {
	d.cells.setObserver(o, ctrHaloMsgsAtm, ctrHaloBytesAtm)
	d.edges.setObserver(o, ctrHaloMsgsAtm, ctrHaloBytesAtm)
}

// ExchangeCells fills the ring-1 halo of a patch cell field of nlev-value
// columns laid out [c*nlev + k] by local id: each peer receives this rank's
// owned boundary columns and contributes the halo columns it owns. Zero
// steady-state allocations; safe concurrently with the ocean's halo traffic
// (disjoint tags).
func (d *IcosDecomp) ExchangeCells(f []float64, nlev int) {
	d.cells.exchange([]haloSlab{columns(f, nlev, 0, nlev, d.Patch.NCells())})
}

// ExchangeEdges fills the stale extended edges of a patch edge field of
// nlev-value columns laid out [e*nlev + k] from the edges' owning ranks.
func (d *IcosDecomp) ExchangeEdges(f []float64, nlev int) {
	d.ExchangeEdgeLevels(f, nlev, 0, nlev)
}

// ExchangeEdgeLevels is ExchangeEdges restricted to levels [lo, hi) of every
// column, e.g. the lowest level after the physics' surface-drag projection:
// the messages carry hi−lo values per edge.
func (d *IcosDecomp) ExchangeEdgeLevels(f []float64, nlev, lo, hi int) {
	d.edges.exchange([]haloSlab{columns(f, nlev, lo, hi, d.Patch.NEdges())})
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

// Unified per-component halo traffic counter names, in obs.SplitLabels'
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
	ids := make([]int32, len(pts))
	for i := range ids {
		ids[i] = int32(i)
	}
	var split func(ids []int32, r0, n int)
	split = func(ids []int32, r0, n int) {
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
		slices.SortFunc(ids, func(a, b int32) int {
			return cmp.Or(cmp.Compare(axis(pts[a]), axis(pts[b])), cmp.Compare(a, b))
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
