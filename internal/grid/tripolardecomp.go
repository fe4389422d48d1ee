package grid

import (
	"fmt"

	"repro/internal/par"
)

// TripolarDecomp is the 2D tripolar block decomposition of the ocean (and
// sea-ice) grid: one uniform rectangular block per rank with halo storage,
// periodic in x, closed at the south, folded at the tripolar north, with
// two further capabilities:
//
//   - land-block elimination: the layout search may choose a process grid
//     with more blocks than ranks and leave the all-land blocks unassigned
//     (the paper's non-ocean-point compaction applied to the partition
//     itself). Halos facing an eliminated block are zero-filled, which is
//     exact because every exchanged ocean/ice field is identically zero on
//     land;
//   - batched, split-phase halo exchange: StartExchange posts the y-phase
//     sends for a whole batch of fields, FinishExchange drains them and runs
//     the x phase, so the caller can overlap interior compute with the halo
//     traffic (interior-first stepping).
//
// It implements the shared Decomp contract, so core's coupler, budget,
// restart, and snapshot paths treat the ocean exactly like the decomposed
// atmosphere. One rank gets the 1×1 layout: the whole grid as one block whose
// every boundary resolves locally.
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

	// Geometric neighbours (-1 = none assigned). southBoundary and atFold
	// mark the physical boundaries; a -1 rank on an interior side means
	// the neighbouring block was land-eliminated, so its halo stays zero
	// — that block's exact field value.
	southRank, northRank  int
	westRank, eastRank    int
	foldRank              int
	southBoundary, atFold bool

	// Per-parity, per-direction send staging. An exchange alternates
	// buffer sets; a neighbour is guaranteed to have drained parity-p's
	// previous message before this rank repacks it (its own exchange n+1
	// cannot have completed otherwise), so steady-state exchanges
	// allocate nothing.
	sendBuf [2][nTriDir][]float64
	parity  int
	one     [1]HaloField // scratch for the single-field Exchange wrappers

	ownedRanges [][2]int
	dryBlocks   []DryBlock

	obs       HaloObserver
	pendMsgs  int64
	pendBytes int64
}

// TripolarDecomp implements the shared Decomp contract.
var _ Decomp = (*TripolarDecomp)(nil)

// DryBlock is the geometry of one land-eliminated block — needed by restart
// writers, which must cover the full global index space and therefore emit
// zero-filled chunks for the blocks nobody owns.
type DryBlock struct {
	I0, J0, NI, NJ int
}

// HaloField describes one field of a batched halo exchange: NLev levels of
// LNI()*LNJ() local storage laid out [k*LNI*LNJ + idx]. Vec marks velocity
// components: the cell-centred fold mirroring is misaligned for staggered
// fields, so they skip the fold message and take free-slip (zero-gradient)
// copies of the top owned row instead (see ExchangeVec).
type HaloField struct {
	Data []float64
	NLev int
	Vec  bool
}

// Halo exchange message tags: disjoint from the icosahedral
// decomposition's 6000–6001 and the coupler rearranger's 7100,
// so the concurrent schedule can drain ocean halo traffic on the component
// goroutine while the atmosphere exchanges on the driver.
const (
	tagTriSouth = 2000 + iota // carries a block's bottom owned rows, travelling south
	tagTriNorth               // top owned rows, travelling north
	tagTriWest                // west owned columns, travelling west
	tagTriEast                // east owned columns, travelling east
	tagTriFold                // top owned rows, crossing the fold
)

// Send-buffer direction slots.
const (
	dirSouth = iota
	dirNorth
	dirWest
	dirEast
	dirFold
	nTriDir
)

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
	var bestLoads []int
	sums := kmtSums(g)
	for pbx := 1; pbx <= g.NX; pbx++ {
		if g.NX%pbx != 0 || g.NX/pbx < halo {
			continue
		}
		for pby := 1; pby <= g.NY; pby++ {
			if g.NY%pby != 0 || g.NY/pby < halo || pbx*pby < size {
				continue
			}
			loads := blockLoads(g, sums, pbx, pby)
			nWet, maxLoad := 0, 0
			for _, l := range loads {
				if l > 0 {
					nWet++
					if l > maxLoad {
						maxLoad = l
					}
				}
			}
			if nWet != size {
				continue
			}
			if bestScore < 0 || maxLoad < bestScore {
				bestScore, bestPBX, bestPBY, bestLoads = maxLoad, pbx, pby, loads
			}
		}
	}
	if bestScore < 0 {
		return nil, fmt.Errorf("grid: no block layout of the %dx%d tripolar grid has exactly %d wet blocks (halo %d)",
			g.NX, g.NY, size, halo)
	}
	return newTripolarFromLayout(g, c, halo, bestPBX, bestPBY, bestLoads)
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

// kmtSums returns the summed-area table of g.KMT: entry j·(NX+1)+i is the
// active-point count of columns < i in rows < j, so the load of any block is
// four lookups and the layout search costs one pass over the grid.
func kmtSums(g *Tripolar) []int {
	w := g.NX + 1
	sums := make([]int, (g.NY+1)*w)
	for j := 0; j < g.NY; j++ {
		for i := 0; i < g.NX; i++ {
			sums[(j+1)*w+i+1] = sums[(j+1)*w+i] + sums[j*w+i+1] - sums[j*w+i] + g.KMT[j*g.NX+i]
		}
	}
	return sums
}

// blockLoads returns the per-block active-point count (ΣKMT) of a layout,
// read from the grid's kmtSums; zero marks an all-land block.
func blockLoads(g *Tripolar, sums []int, pbx, pby int) []int {
	bni, bnj, w := g.NX/pbx, g.NY/pby, g.NX+1
	loads := make([]int, pbx*pby)
	for by := 0; by < pby; by++ {
		j0, j1 := by*bnj*w, (by+1)*bnj*w
		for bx := 0; bx < pbx; bx++ {
			i0, i1 := bx*bni, (bx+1)*bni
			loads[by*pbx+bx] = sums[j1+i1] - sums[j0+i1] - sums[j1+i0] + sums[j0+i0]
		}
	}
	return loads
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
	d.finishGeometry()
	return d, nil
}

// finishGeometry derives this rank's patch extents, neighbour ranks, and
// cached owned ranges from the block assignment.
func (d *TripolarDecomp) finishGeometry() {
	d.I0, d.J0 = d.bx*d.BNI, d.by*d.BNJ
	d.NI, d.NJ = d.BNI, d.BNJ

	d.southRank, d.northRank, d.westRank, d.eastRank, d.foldRank = -1, -1, -1, -1, -1
	d.southBoundary = d.by == 0
	d.atFold = d.by == d.PBY-1
	if !d.southBoundary {
		d.southRank = d.rankOf[(d.by-1)*d.PBX+d.bx]
	}
	if !d.atFold {
		d.northRank = d.rankOf[(d.by+1)*d.PBX+d.bx]
	} else {
		d.foldRank = d.rankOf[d.by*d.PBX+(d.PBX-1-d.bx)]
	}
	if d.PBX > 1 {
		d.westRank = d.rankOf[d.by*d.PBX+(d.bx-1+d.PBX)%d.PBX]
		d.eastRank = d.rankOf[d.by*d.PBX+(d.bx+1)%d.PBX]
	}

	d.ownedRanges = make([][2]int, 0, d.NJ)
	for lj := 0; lj < d.NJ; lj++ {
		d.ownedRanges = append(d.ownedRanges, [2]int{(d.J0+lj)*d.G.NX + d.I0, d.NI})
	}
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

// AtNorthFold reports whether this block touches the folded northern row.
func (d *TripolarDecomp) AtNorthFold() bool { return d.atFold }

// AtSouth reports whether this block touches the closed southern boundary.
func (d *TripolarDecomp) AtSouth() bool { return d.southBoundary }

// DryBlocks returns the land-eliminated blocks (identical on every rank;
// callers must not mutate).
func (d *TripolarDecomp) DryBlocks() []DryBlock { return d.dryBlocks }

// --- Decomp contract ---

// Comm implements Decomp.
func (d *TripolarDecomp) Comm() *par.Comm { return d.comm }

// NGlobal implements Decomp: the global surface point count.
func (d *TripolarDecomp) NGlobal() int { return d.G.NX * d.G.NY }

// Owner implements Decomp: ownership is geometric by block, so a land
// column inside a wet block is owned by that block's rank, while columns of
// eliminated blocks are owned by nobody (-1).
func (d *TripolarDecomp) Owner(gi int) int {
	i, j := gi%d.G.NX, gi/d.G.NX
	return d.rankOf[(j/d.BNJ)*d.PBX+i/d.BNI]
}

// InExt implements Decomp: whether the global cell's value is locally
// available after an exchange — owned, inside the halo ring (periodic in
// x), or a fold image row of a fold-touching block.
func (d *TripolarDecomp) InExt(gi int) bool {
	nx := d.G.NX
	i, j := gi%nx, gi/nx
	if d.xNear(i) {
		lo := d.J0 - d.H
		if lo < 0 {
			lo = 0
		}
		if j >= lo && j < d.J0+d.NJ+d.H && j < d.G.NY {
			return true
		}
	}
	return d.atFold && j >= d.G.NY-d.H && d.xNear(nx-1-i)
}

// xNear reports whether global column i is within H of the owned column
// range in periodic x.
func (d *TripolarDecomp) xNear(i int) bool {
	if i >= d.I0 && i < d.I0+d.NI {
		return true
	}
	nx := d.G.NX
	dl := (d.I0 - i + nx) % nx
	dr := (i - (d.I0 + d.NI - 1) + nx) % nx
	return dl <= d.H || dr <= d.H
}

// OwnedRanges implements Decomp: one {start, NI} run per owned row. Cached;
// callers must not mutate.
func (d *TripolarDecomp) OwnedRanges() [][2]int { return d.ownedRanges }

// SetObserver attaches the halo traffic counters
// (cpl.halo.{msgs,bytes} with component="ocn").
func (d *TripolarDecomp) SetObserver(o HaloObserver) { d.obs = o }

// ExchangeCells implements Decomp: a batched scalar exchange of one
// nlev-level field in local block layout.
func (d *TripolarDecomp) ExchangeCells(f []float64, nlev int) {
	d.one[0] = HaloField{Data: f, NLev: nlev}
	d.ExchangeFields(d.one[:])
	d.one[0].Data = nil
}

// Gather implements Decomp: GatherGlobal on one level.
func (d *TripolarDecomp) Gather(f []float64) []float64 { return d.GatherGlobal(f) }

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

// Exchange fills the halo of a one-level scalar field (see ExchangeFields).
// The single-field wrappers share scratch state and must not be called
// concurrently with any other exchange on this decomposition.
func (d *TripolarDecomp) Exchange(f []float64) {
	d.one[0] = HaloField{Data: f, NLev: 1}
	d.ExchangeFields(d.one[:])
	d.one[0].Data = nil
}

// ExchangeVec fills the halo of a one-level velocity component field.
func (d *TripolarDecomp) ExchangeVec(f []float64) {
	d.one[0] = HaloField{Data: f, NLev: 1, Vec: true}
	d.ExchangeFields(d.one[:])
	d.one[0].Data = nil
}

// ExchangeFields fills the halos of a batch of fields in one split-phase
// exchange: periodic in x, zero-gradient at the closed south, fold-mirrored
// (scalar) or free-slip (vec) at the tripolar north, zero against
// land-eliminated neighbours. All ranks must pass identical batch shapes
// (field order, levels, vec flags); the halo values are identical to
// per-field exchanges on any layout.
func (d *TripolarDecomp) ExchangeFields(fields []HaloField) {
	d.StartExchange(fields)
	d.FinishExchange(fields)
}

// StartExchange posts the y-phase sends of a batched exchange. Between
// StartExchange and FinishExchange the caller may compute on owned cells
// (the messages are already packed) but must not write the fields' halo or
// owned storage. Every StartExchange must be followed by exactly one
// FinishExchange with the same batch.
func (d *TripolarDecomp) StartExchange(fields []HaloField) {
	d.parity ^= 1
	if d.PBX == 1 && d.PBY == 1 {
		return // single block: every boundary resolves locally in Finish
	}
	if d.southRank >= 0 {
		d.send(d.southRank, tagTriSouth, d.packRows(fields, d.H, dirSouth, false))
	}
	if d.northRank >= 0 {
		d.send(d.northRank, tagTriNorth, d.packRows(fields, d.NJ, dirNorth, false))
	}
	if d.atFold && d.foldRank >= 0 && d.foldRank != d.comm.Rank() && hasScalar(fields) {
		// The packed buffer is the partner's top owned rows in natural
		// column order; the receiver mirrors columns while unpacking.
		d.send(d.foldRank, tagTriFold, d.packRows(fields, d.NJ, dirFold, true))
	}
}

// send ships one packed staging buffer and accrues the pending traffic
// counters (flushed once per exchange).
func (d *TripolarDecomp) send(dst, tag int, buf []float64) {
	d.pendMsgs++
	d.pendBytes += int64(8 * len(buf))
	par.SendF64(d.comm, dst, tag, buf)
}

// FinishExchange drains the y-phase receives, applies the boundary fills,
// runs the x phase (which carries the already-filled corner rows), and
// applies the free-slip fold override to vec fields.
func (d *TripolarDecomp) FinishExchange(fields []HaloField) {
	lni, lnj, h := d.LNI(), d.LNJ(), d.H
	n2 := lni * lnj

	// --- Y direction: south ghost rows ---
	switch {
	case d.southRank >= 0:
		d.unpackRows(fields, par.RecvF64(d.comm, d.southRank, tagTriNorth), 0)
	case d.southBoundary:
		// Closed south: zero-gradient full-row copies (the stale x halos
		// they carry are overwritten by the x phase).
		for _, f := range fields {
			for k := 0; k < f.NLev; k++ {
				base := k * n2
				for r := 0; r < h; r++ {
					copy(f.Data[base+r*lni:base+(r+1)*lni], f.Data[base+h*lni:base+(h+1)*lni])
				}
			}
		}
	default:
		d.zeroRows(fields, 0) // eliminated south neighbour
	}

	// --- Y direction: north ghost rows (plain neighbour or fold) ---
	switch {
	case !d.atFold && d.northRank >= 0:
		d.unpackRows(fields, par.RecvF64(d.comm, d.northRank, tagTriSouth), h+d.NJ)
	case !d.atFold:
		d.zeroRows(fields, h+d.NJ) // eliminated north neighbour
	case d.foldRank == d.comm.Rank():
		// Self-partnered fold: ghost row (NJ+r) takes the own owned row
		// (NJ-1-r), columns mirrored. Vec fields skip the mirror — the
		// free-slip override below fully overwrites their fold ghosts.
		for _, f := range fields {
			if f.Vec {
				continue
			}
			for k := 0; k < f.NLev; k++ {
				base := k * n2
				for r := 0; r < h; r++ {
					src := f.Data[base+(d.NJ+h-1-r)*lni : base+(d.NJ+h-r)*lni]
					dst := f.Data[base+(h+d.NJ+r)*lni : base+(h+d.NJ+r+1)*lni]
					for li := 0; li < d.NI; li++ {
						dst[h+li] = src[h+d.NI-1-li]
					}
				}
			}
		}
	case d.foldRank >= 0:
		if hasScalar(fields) {
			d.unpackFold(fields, par.RecvF64(d.comm, d.foldRank, tagTriFold))
		}
	default:
		d.zeroRows(fields, h+d.NJ) // eliminated fold partner
	}

	// --- X direction (periodic), carries the corner ghosts ---
	if d.PBX == 1 {
		for _, f := range fields {
			for k := 0; k < f.NLev; k++ {
				base := k * n2
				for j := 0; j < lnj; j++ {
					row := f.Data[base+j*lni : base+(j+1)*lni]
					copy(row[:h], row[d.NI:d.NI+h])
					copy(row[h+d.NI:], row[h:2*h])
				}
			}
		}
	} else {
		if d.westRank >= 0 {
			d.send(d.westRank, tagTriWest, d.packCols(fields, h, dirWest))
		}
		if d.eastRank >= 0 {
			d.send(d.eastRank, tagTriEast, d.packCols(fields, d.NI, dirEast))
		}
		if d.eastRank >= 0 {
			d.unpackCols(fields, par.RecvF64(d.comm, d.eastRank, tagTriWest), h+d.NI)
		} else {
			d.zeroCols(fields, h+d.NI)
		}
		if d.westRank >= 0 {
			d.unpackCols(fields, par.RecvF64(d.comm, d.westRank, tagTriEast), 0)
		} else {
			d.zeroCols(fields, 0)
		}
	}

	// --- Free-slip fold override for vec fields: ghost rows take full
	// copies (x halos included) of the top owned row ---
	if d.atFold {
		for _, f := range fields {
			if !f.Vec {
				continue
			}
			for k := 0; k < f.NLev; k++ {
				base := k * n2
				src := f.Data[base+(h+d.NJ-1)*lni : base+(h+d.NJ)*lni]
				for r := 0; r < h; r++ {
					copy(f.Data[base+(h+d.NJ+r)*lni:base+(h+d.NJ+r+1)*lni], src)
				}
			}
		}
	}

	if d.obs != nil && d.pendMsgs > 0 {
		d.obs.AddCount(ctrHaloMsgsOcn, d.pendMsgs)
		d.obs.AddCount(ctrHaloBytesOcn, d.pendBytes)
	}
	d.pendMsgs, d.pendBytes = 0, 0
}

// hasScalar reports whether the batch carries any non-vec field (the fold
// message is scalar-only; an all-vec batch sends none).
func hasScalar(fields []HaloField) bool {
	for _, f := range fields {
		if !f.Vec {
			return true
		}
	}
	return false
}

// packRows stages H rows starting at raw local row j0, owned columns only,
// for every (matching) field and level, into the direction's parity buffer.
func (d *TripolarDecomp) packRows(fields []HaloField, j0, dir int, scalarOnly bool) []float64 {
	lni, h := d.LNI(), d.H
	n2 := lni * d.LNJ()
	need := 0
	for _, f := range fields {
		if scalarOnly && f.Vec {
			continue
		}
		need += f.NLev * h * d.NI
	}
	buf := d.sendBuf[d.parity][dir]
	if cap(buf) < need {
		buf = make([]float64, need)
		d.sendBuf[d.parity][dir] = buf
	}
	buf = buf[:need]
	pos := 0
	for _, f := range fields {
		if scalarOnly && f.Vec {
			continue
		}
		for k := 0; k < f.NLev; k++ {
			base := k * n2
			for r := 0; r < h; r++ {
				start := base + (j0+r)*lni + h
				copy(buf[pos:pos+d.NI], f.Data[start:start+d.NI])
				pos += d.NI
			}
		}
	}
	return buf
}

// unpackRows writes a row-slab message back at raw local row j0, owned
// columns only.
func (d *TripolarDecomp) unpackRows(fields []HaloField, msg []float64, j0 int) {
	lni, h := d.LNI(), d.H
	n2 := lni * d.LNJ()
	pos := 0
	for _, f := range fields {
		for k := 0; k < f.NLev; k++ {
			base := k * n2
			for r := 0; r < h; r++ {
				start := base + (j0+r)*lni + h
				copy(f.Data[start:start+d.NI], msg[pos:pos+d.NI])
				pos += d.NI
			}
		}
	}
	if pos != len(msg) {
		panic(fmt.Sprintf("grid: tripolar row message has %d values, want %d", len(msg), pos))
	}
}

// unpackFold writes the fold partner's top-owned-row message into the fold
// ghost rows: ghost row (NJ+r) takes the partner's owned row (NJ-1-r) with
// columns mirrored (partner local column NI-1-li lands at li).
func (d *TripolarDecomp) unpackFold(fields []HaloField, msg []float64) {
	lni, h := d.LNI(), d.H
	n2 := lni * d.LNJ()
	pos := 0
	for _, f := range fields {
		if f.Vec {
			continue
		}
		for k := 0; k < f.NLev; k++ {
			base := k * n2
			fieldStart := pos
			for r := 0; r < h; r++ {
				src := msg[fieldStart+(h-1-r)*d.NI : fieldStart+(h-r)*d.NI]
				dst := f.Data[base+(h+d.NJ+r)*lni : base+(h+d.NJ+r+1)*lni]
				for li := 0; li < d.NI; li++ {
					dst[h+li] = src[d.NI-1-li]
				}
			}
			pos += h * d.NI
		}
	}
	if pos != len(msg) {
		panic(fmt.Sprintf("grid: tripolar fold message has %d values, want %d", len(msg), pos))
	}
}

// zeroRows zeroes H full rows starting at raw local row j0 — the fill
// against land-eliminated neighbours, whose fields are identically zero.
func (d *TripolarDecomp) zeroRows(fields []HaloField, j0 int) {
	lni, h := d.LNI(), d.H
	n2 := lni * d.LNJ()
	for _, f := range fields {
		for k := 0; k < f.NLev; k++ {
			base := k * n2
			zero := f.Data[base+j0*lni : base+(j0+h)*lni]
			for i := range zero {
				zero[i] = 0
			}
		}
	}
}

// packCols stages H columns starting at raw local column i0, full local
// height (ghost rows included, so corners travel), layout [j*H + r].
func (d *TripolarDecomp) packCols(fields []HaloField, i0, dir int) []float64 {
	lni, lnj, h := d.LNI(), d.LNJ(), d.H
	n2 := lni * lnj
	need := 0
	for _, f := range fields {
		need += f.NLev * h * lnj
	}
	buf := d.sendBuf[d.parity][dir]
	if cap(buf) < need {
		buf = make([]float64, need)
		d.sendBuf[d.parity][dir] = buf
	}
	buf = buf[:need]
	pos := 0
	for _, f := range fields {
		for k := 0; k < f.NLev; k++ {
			base := k * n2
			for j := 0; j < lnj; j++ {
				for r := 0; r < h; r++ {
					buf[pos] = f.Data[base+j*lni+i0+r]
					pos++
				}
			}
		}
	}
	return buf
}

// unpackCols writes a column-slab message back at raw local column i0.
func (d *TripolarDecomp) unpackCols(fields []HaloField, msg []float64, i0 int) {
	lni, lnj, h := d.LNI(), d.LNJ(), d.H
	n2 := lni * lnj
	pos := 0
	for _, f := range fields {
		for k := 0; k < f.NLev; k++ {
			base := k * n2
			for j := 0; j < lnj; j++ {
				for r := 0; r < h; r++ {
					f.Data[base+j*lni+i0+r] = msg[pos]
					pos++
				}
			}
		}
	}
	if pos != len(msg) {
		panic(fmt.Sprintf("grid: tripolar column message has %d values, want %d", len(msg), pos))
	}
}

// zeroCols zeroes H columns starting at raw local column i0, full height.
func (d *TripolarDecomp) zeroCols(fields []HaloField, i0 int) {
	lni, lnj, h := d.LNI(), d.LNJ(), d.H
	n2 := lni * lnj
	for _, f := range fields {
		for k := 0; k < f.NLev; k++ {
			base := k * n2
			for j := 0; j < lnj; j++ {
				for r := 0; r < h; r++ {
					f.Data[base+j*lni+i0+r] = 0
				}
			}
		}
	}
}
