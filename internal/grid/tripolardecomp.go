package grid

import (
	"fmt"

	"repro/internal/par"
)

// TripolarDecomp is the 2D tripolar block decomposition of the ocean (and
// sea-ice) grid: one uniform rectangular block per rank with halo storage,
// and a halo plan built with it. The plan has one rule: every ghost (gi, gj)
// takes the value of exactly one owned cell, or zero —
//
//   - x is periodic;
//   - the closed south is zero-gradient: a ghost row gj < 0 takes row 0;
//   - across the tripolar fold a scalar ghost (gi, gj ≥ NY) takes the
//     mirrored cell (NX−1−gi, 2NY−1−gj), while a vector component takes
//     (gi, NY−1), the free-slip wall of the staggered velocities;
//   - a ghost is zero exactly when its source cell lies in a land-eliminated
//     block. The layout search may choose a process grid with more blocks
//     than ranks and leave the all-land blocks unassigned (the paper's
//     non-ocean-point compaction applied to the partition itself); the zero
//     is exact because every exchanged ocean/ice field is identically zero
//     on land.
//
// Corners are ordinary entries from their owning peer, and ghosts whose
// source this rank owns are local copies, so one rank sends nothing. The
// exchange is batched: ExchangeFields sends one message per peer carrying
// every field of a batch.
//
// One rank gets the 1×1 layout: the whole grid as one block.
type TripolarDecomp struct {
	G *Tripolar

	// Geometry of this rank's patch: local arrays are
	// (NJ+2H) × (NI+2H), row-major, owned region at offset (H, H).
	I0, J0 int // global origin of the owned region
	NI, NJ int // owned extents
	H      int // halo width

	PBX, PBY int   // process-block grid extents (blocks, not ranks)
	BNI, BNJ int   // uniform block extents: NX/PBX, NY/PBY
	bx, by   int   // this rank's block coordinates
	rankOf   []int // block (by*PBX+bx) -> owning rank; -1 = eliminated

	comm *par.Comm
	halo haloPlan
	slab []haloSlab // the batch in plan form, rebuilt by every exchange

	dryBlocks []DryBlock
}

// DryBlock is the geometry of one land-eliminated block — needed by restart
// writers, which must cover the full global index space and therefore emit
// zero-filled chunks for the blocks nobody owns.
type DryBlock struct {
	I0, J0, NI, NJ int
}

// HaloField describes one field of a batched halo exchange: NLev levels of
// LNI()*LNJ() local storage laid out [k*LNI*LNJ + idx]. Vec marks velocity
// components, whose fold ghosts take the top owned row of their own column
// (free slip) instead of the mirrored scalar image.
type HaloField struct {
	Data []float64
	NLev int
	Vec  bool
}

// tagHaloOcn tags the ocean halo plan: disjoint from the icosahedral
// decomposition's 6000–6001 and the coupler rearranger's 7100, so the
// concurrent schedule can drain ocean halo traffic on the component
// goroutine while the atmosphere exchanges on the driver.
const tagHaloOcn = 2000

// NewTripolarDecomp partitions the grid over the communicator: it searches
// the divisor layouts of the grid for a process-block grid whose wet-block
// count equals the rank count — eliminating all-land blocks — and picks the
// one whose maximum per-block active-point load (ΣKMT) is smallest. Every
// rank derives the same layout offline, so construction needs no traffic.
func NewTripolarDecomp(g *Tripolar, c *par.Comm, halo int) (*TripolarDecomp, error) {
	if halo < 1 {
		return nil, fmt.Errorf("grid: halo width must be >= 1, got %d", halo)
	}
	size := c.Size()
	bestScore := -1
	var bestPBX, bestPBY int
	sums := kmtSums(g)
	for pbx := 1; pbx <= g.NX; pbx++ {
		if g.NX%pbx != 0 || g.NX/pbx < halo {
			continue
		}
		for pby := 1; pby <= g.NY; pby++ {
			if g.NY%pby != 0 || g.NY/pby < halo || pbx*pby < size {
				continue
			}
			nWet, maxLoad := 0, 0
			eachBlockLoad(g, sums, pbx, pby, func(_, l int) {
				if l > 0 {
					nWet++
					maxLoad = max(maxLoad, l)
				}
			})
			if nWet != size {
				continue
			}
			if bestScore < 0 || maxLoad < bestScore {
				bestScore, bestPBX, bestPBY = maxLoad, pbx, pby
			}
		}
	}
	if bestScore < 0 {
		return nil, fmt.Errorf("grid: no block layout of the %dx%d tripolar grid has exactly %d wet blocks (halo %d)",
			g.NX, g.NY, size, halo)
	}
	return newTripolarFromLayout(g, c, halo, bestPBX, bestPBY, blockLoads(g, sums, bestPBX, bestPBY))
}

// NewTripolarDecompLayout builds the decomposition on an explicit
// process-block grid — the hook tests and benches use to pin a layout. The
// layout's wet-block count must equal the communicator size.
func NewTripolarDecompLayout(g *Tripolar, c *par.Comm, pbx, pby, halo int) (*TripolarDecomp, error) {
	if halo < 1 {
		return nil, fmt.Errorf("grid: halo width must be >= 1, got %d", halo)
	}
	if pbx < 1 || pby < 1 || g.NX%pbx != 0 || g.NY%pby != 0 {
		return nil, fmt.Errorf("grid: %dx%d grid not divisible by %dx%d block layout", g.NX, g.NY, pbx, pby)
	}
	if g.NX/pbx < halo || g.NY/pby < halo {
		return nil, fmt.Errorf("grid: halo %d exceeds local block %dx%d", halo, g.NX/pbx, g.NY/pby)
	}
	loads := blockLoads(g, kmtSums(g), pbx, pby)
	nWet := 0
	for _, l := range loads {
		if l > 0 {
			nWet++
		}
	}
	if nWet != c.Size() {
		return nil, fmt.Errorf("grid: %dx%d layout has %d wet blocks, want %d (one per rank)", pbx, pby, nWet, c.Size())
	}
	return newTripolarFromLayout(g, c, halo, pbx, pby, loads)
}

// kmtSums returns the summed-area table of the columns' level counts: entry j·(NX+1)+i is the
// active-point count of columns < i in rows < j, so the load of any block is
// four lookups and the layout search costs one pass over the grid.
func kmtSums(g *Tripolar) []int {
	w := g.NX + 1
	sums := make([]int, (g.NY+1)*w)
	for j := 0; j < g.NY; j++ {
		for i := 0; i < g.NX; i++ {
			_, _, kmt := g.Column(j*g.NX + i)
			sums[(j+1)*w+i+1] = sums[(j+1)*w+i] + sums[j*w+i+1] - sums[j*w+i] + kmt
		}
	}
	return sums
}

// blockLoads returns the per-block active-point count (ΣKMT) of a layout,
// read from the grid's kmtSums; zero marks an all-land block.
func blockLoads(g *Tripolar, sums []int, pbx, pby int) []int {
	loads := make([]int, pbx*pby)
	eachBlockLoad(g, sums, pbx, pby, func(bi, l int) { loads[bi] = l })
	return loads
}

// eachBlockLoad calls fn with every block's index and load, the layout
// search's pass that stores none of them.
func eachBlockLoad(g *Tripolar, sums []int, pbx, pby int, fn func(bi, load int)) {
	bni, bnj, w := g.NX/pbx, g.NY/pby, g.NX+1
	for by := 0; by < pby; by++ {
		j0, j1 := by*bnj*w, (by+1)*bnj*w
		for bx := 0; bx < pbx; bx++ {
			i0, i1 := bx*bni, (bx+1)*bni
			fn(by*pbx+bx, sums[j1+i1]-sums[j0+i1]-sums[j1+i0]+sums[j0+i0])
		}
	}
}

func newTripolarFromLayout(g *Tripolar, c *par.Comm, halo, pbx, pby int, loads []int) (*TripolarDecomp, error) {
	d := &TripolarDecomp{
		G: g, comm: c, H: halo,
		PBX: pbx, PBY: pby, BNI: g.NX / pbx, BNJ: g.NY / pby,
	}
	d.rankOf = make([]int, pbx*pby)
	r := 0
	for bi, load := range loads {
		if load > 0 {
			d.rankOf[bi] = r
			if r == c.Rank() {
				d.bx, d.by = bi%pbx, bi/pbx
			}
			r++
		} else {
			d.rankOf[bi] = -1
			d.dryBlocks = append(d.dryBlocks, DryBlock{
				I0: (bi % pbx) * d.BNI, J0: (bi / pbx) * d.BNJ,
				NI: d.BNI, NJ: d.BNJ,
			})
		}
	}
	d.I0, d.J0 = d.bx*d.BNI, d.by*d.BNJ
	d.NI, d.NJ = d.BNI, d.BNJ
	d.buildHalo()
	return d, nil
}

// ghostSource returns the global cell whose value ghost (gi, gj) takes; gi
// may lie outside [0, NX) and gj outside [0, NY).
func (d *TripolarDecomp) ghostSource(gi, gj int, vec bool) (int, int) {
	nx, ny := d.G.NX, d.G.NY
	gi = (gi%nx + nx) % nx
	switch {
	case gj < 0:
		gj = 0
	case gj >= ny && vec:
		gj = ny - 1
	case gj >= ny:
		gi, gj = nx-1-gi, 2*ny-1-gj
	}
	return gi, gj
}

// buildHalo derives the halo plan. Every rank walks the ghosts of every wet
// block in the same order (blocks ascending, each block's local storage
// row-major), so the entries one rank lists for a peer land in the same
// positions as the peer's entries for it.
func (d *TripolarDecomp) buildHalo() {
	rank, size, h, nx := d.comm.Rank(), d.comm.Size(), d.H, d.G.NX
	routes := [2]rankRoute{newRankRoute(size), newRankRoute(size)}
	for b, r := range d.rankOf {
		if r < 0 {
			continue
		}
		bi0, bj0 := (b%d.PBX)*d.BNI, (b/d.PBX)*d.BNJ
		for lj := -h; lj < d.BNJ+h; lj++ {
			for li := -h; li < d.BNI+h; li++ {
				if li >= 0 && li < d.BNI && lj >= 0 && lj < d.BNJ {
					continue // owned
				}
				for v := range routes {
					si, sj := d.ghostSource(bi0+li, bj0+lj, v == 1)
					src, rt := d.Owner(sj*nx+si), &routes[v]
					switch {
					case r == rank && src == rank:
						rt.dst = append(rt.dst, d.LIdx(li, lj))
						rt.src = append(rt.src, d.LIdx(si-d.I0, sj-d.J0))
					case r == rank && src < 0:
						rt.zero = append(rt.zero, d.LIdx(li, lj))
					case r == rank:
						rt.recvFrom[src] = append(rt.recvFrom[src], d.LIdx(li, lj))
					case src == rank:
						rt.sendTo[r] = append(rt.sendTo[r], d.LIdx(si-d.I0, sj-d.J0))
					}
				}
			}
		}
	}
	d.halo = newHaloPlan(d.comm, tagHaloOcn, symmetricPeers(rank, routes[0], routes[1]), routes[0], routes[1])
}

// --- Block geometry ---

// LNI returns the local array width including halos.
func (d *TripolarDecomp) LNI() int { return d.NI + 2*d.H }

// LNJ returns the local row count including halos.
func (d *TripolarDecomp) LNJ() int { return d.NJ + 2*d.H }

// Alloc returns a zeroed local array (one level).
func (d *TripolarDecomp) Alloc() []float64 { return make([]float64, d.LNI()*d.LNJ()) }

// LIdx converts owned-region coordinates (li, lj) ∈ [0,NI)×[0,NJ) to the
// flat local index including the halo offset.
func (d *TripolarDecomp) LIdx(li, lj int) int { return (lj+d.H)*d.LNI() + li + d.H }

// GIdx converts owned-region coordinates to the flat global surface index.
func (d *TripolarDecomp) GIdx(li, lj int) int { return (d.J0+lj)*d.G.NX + d.I0 + li }

// DryBlocks returns the land-eliminated blocks (identical on every rank;
// callers must not mutate).
func (d *TripolarDecomp) DryBlocks() []DryBlock { return d.dryBlocks }

// Owner returns the rank owning global column gi. Ownership is geometric
// by block, so a land column inside a wet block is owned by that block's
// rank, while columns of eliminated blocks are owned by nobody (-1).
func (d *TripolarDecomp) Owner(gi int) int {
	i, j := gi%d.G.NX, gi/d.G.NX
	return d.rankOf[(j/d.BNJ)*d.PBX+i/d.BNI]
}

// SetObserver attaches the halo traffic counters
// (cpl.halo.{msgs,bytes} with component="ocn").
func (d *TripolarDecomp) SetObserver(o HaloObserver) {
	d.halo.setObserver(o, ctrHaloMsgsOcn, ctrHaloBytesOcn)
}

// ExchangeCells is the halo exchange of one nlev-level scalar field in
// local block layout.
func (d *TripolarDecomp) ExchangeCells(f []float64, nlev int) {
	d.ExchangeFields([]HaloField{{Data: f, NLev: nlev}})
}

// AllreduceSum reduces a scalar over the decomposition's ranks.
func (d *TripolarDecomp) AllreduceSum(v float64) float64 {
	return d.comm.Allreduce(v, par.OpSum)
}

// AllreduceMax is AllreduceSum's max counterpart.
func (d *TripolarDecomp) AllreduceMax(v float64) float64 {
	return d.comm.Allreduce(v, par.OpMax)
}

// GatherGlobal assembles the owned regions of a local field from all ranks
// into a global NY×NX array on rank 0 (nil elsewhere). Eliminated blocks
// stay zero — their exact field value.
func (d *TripolarDecomp) GatherGlobal(f []float64) []float64 {
	nx := d.G.NX
	type patch struct {
		I0, J0, NI, NJ int
		Data           []float64
	}
	own := make([]float64, d.NI*d.NJ)
	for lj := 0; lj < d.NJ; lj++ {
		for li := 0; li < d.NI; li++ {
			own[lj*d.NI+li] = f[d.LIdx(li, lj)]
		}
	}
	patches := par.Gather(d.comm, 0, patch{d.I0, d.J0, d.NI, d.NJ, own})
	if d.comm.Rank() != 0 {
		return nil
	}
	out := make([]float64, nx*d.G.NY)
	for _, p := range patches {
		for lj := 0; lj < p.NJ; lj++ {
			copy(out[(p.J0+lj)*nx+p.I0:(p.J0+lj)*nx+p.I0+p.NI], p.Data[lj*p.NI:(lj+1)*p.NI])
		}
	}
	return out
}

// --- Halo exchange ---

// ExchangeFields fills the halos of a batch of fields in one exchange: one
// message per peer carries every field. All ranks must pass identical batch
// shapes (field order, levels, vec flags).
func (d *TripolarDecomp) ExchangeFields(fields []HaloField) {
	d.halo.exchange(d.slabs(fields))
}

// slabs addresses a batch's level planes as plan fields, in scratch reused
// by every exchange.
func (d *TripolarDecomp) slabs(fields []HaloField) []haloSlab {
	n2 := d.LNI() * d.LNJ()
	d.slab = d.slab[:0]
	for _, f := range fields {
		d.slab = append(d.slab, haloSlab{data: f.Data, ps: 1, ks: n2, nlev: f.NLev, vec: f.Vec})
	}
	return d.slab
}
