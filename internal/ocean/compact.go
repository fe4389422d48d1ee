package ocean

import (
	"fmt"
	"sort"

	"repro/internal/grid"
)

// This file implements the §5.2.2 optimization: excluding 3-D non-ocean
// grid points. Three pieces reproduce the paper's pipeline:
//
//  1. a compacted wet-column sweep that runs the same tracer kernel over a
//     packed index list instead of the full rectangle (bit-identical
//     results, ~30 % less work at the real ocean fraction);
//  2. a wet-point-balanced rank remapping replacing the naive block
//     decomposition;
//  3. the rebuilt halo communication topology (which ranks actually
//     exchange boundaries after remapping).

// Compacted is the packed wet-column view of one rank's block.
type Compacted struct {
	o    *Ocean
	cols [][2]int // (li, lj) of each owned wet column
}

// Compact builds the packed wet-column list for the ocean's block.
func (o *Ocean) Compact() *Compacted {
	c := &Compacted{o: o}
	for lj := 0; lj < o.B.NJ; lj++ {
		for li := 0; li < o.B.NI; li++ {
			if o.maskT[o.idx2(li, lj)] {
				c.cols = append(c.cols, [2]int{li, lj})
			}
		}
	}
	return c
}

// NWet returns the number of packed wet columns.
func (c *Compacted) NWet() int { return len(c.cols) }

// FullToCompact returns the per-block index map from an owned cell's
// row-major offset (lj*NI + li) to its packed wet-column slot, or -1 for
// land. Composed with the 2-D block partition — global column → owning
// block via TripolarDecomp.Owner, then local offset, then this map — it
// addresses the packed storage of any rank, which is what lets compaction
// and the block decomposition coexist (§5.2.2 under the §5.1 partition).
func (c *Compacted) FullToCompact() []int {
	out := make([]int, c.o.B.NI*c.o.B.NJ)
	for i := range out {
		out[i] = -1
	}
	for ci, cl := range c.cols {
		out[cl[1]*c.o.B.NI+cl[0]] = ci
	}
	return out
}

// CompactToGlobal returns, per packed wet-column slot, the global surface
// column index (jg*NX + ig) the slot holds — the inverse direction of
// FullToCompact lifted to global coordinates, so packed data from different
// blocks can be scattered back into one global field.
func (c *Compacted) CompactToGlobal() []int {
	out := make([]int, len(c.cols))
	for ci, cl := range c.cols {
		out[ci] = c.o.B.GIdx(cl[0], cl[1])
	}
	return out
}

// WorkSaving returns the fraction of per-column sweep iterations the
// compaction removes on this block (land columns skipped entirely).
func (c *Compacted) WorkSaving() float64 {
	total := c.o.B.NI * c.o.B.NJ
	if total == 0 {
		return 0
	}
	return 1 - float64(len(c.cols))/float64(total)
}

// WorkSaving3D returns the 3-D work saving including bathymetry: active
// (column, level) pairs over the full cuboid.
func (c *Compacted) WorkSaving3D() float64 {
	active := 0
	for _, cl := range c.cols {
		active += c.o.kmt[c.o.idx2(cl[0], cl[1])]
	}
	total := c.o.B.NI * c.o.B.NJ * c.o.NL
	if total == 0 {
		return 0
	}
	return 1 - float64(active)/float64(total)
}

// AdvectDiffuse runs the identical tracer update over the packed columns
// only. Results are bit-identical to Ocean.advectDiffuse and to the stepping
// kernel because the same per-cell update (advectCell, the single kernel
// source) runs on the same inputs; land cells hold zeros in all of them.
// surf/surfDen are the surface forcing field and its constant denominator,
// as in advectDiffuse.
func (c *Compacted) AdvectDiffuse(tr []float64, dt float64, surf []float64, surfDen float64) []float64 {
	out := make([]float64, len(tr))
	copy(out, tr)
	a := c.o.sweepArgs(tr, dt, surf, surfDen)
	c.o.Sp.ParallelFor(len(c.cols), func(i int) {
		cl := c.cols[i]
		advectColumn(&a, out, c.o.idx2(cl[0], cl[1]), c.o.B.J0+cl[1])
	})
	return out
}

// TracerSweepFull runs one full-rectangle tracer sweep on the current
// state — the pre-optimization kernel, exposed for the §5.2.2 benchmark.
func (o *Ocean) TracerSweepFull() []float64 {
	return o.advectDiffuse(o.T, o.Cfg.DtBaroclinic, o.QHeat, o.surfTDen())
}

// TracerSweepCompact runs the same sweep over packed wet columns only.
func (o *Ocean) TracerSweepCompact(c *Compacted) []float64 {
	return c.AdvectDiffuse(o.T, o.Cfg.DtBaroclinic, o.QHeat, o.surfTDen())
}

// --- Rank remapping ---

// ColumnOwner maps every global surface column to a rank.
type ColumnOwner struct {
	NRanks int
	Owner  []int // [NY*NX], -1 for land columns under the balanced mapping
}

// BlockOwner is the naive pre-optimization decomposition: rectangular
// blocks over the full grid, land included.
func BlockOwner(g *grid.Tripolar, px, py int) (*ColumnOwner, error) {
	if g.NX%px != 0 || g.NY%py != 0 {
		return nil, fmt.Errorf("ocean: %dx%d grid not divisible by %dx%d", g.NX, g.NY, px, py)
	}
	co := &ColumnOwner{NRanks: px * py, Owner: make([]int, g.NX*g.NY)}
	bi, bj := g.NX/px, g.NY/py
	for j := 0; j < g.NY; j++ {
		for i := 0; i < g.NX; i++ {
			co.Owner[j*g.NX+i] = (j/bj)*px + i/bi
		}
	}
	return co, nil
}

// BalancedOwner is the §5.2.2 remapping: land columns are removed, and the
// wet columns — weighted by their active level count — are distributed over
// ranks in row-major snake order so each rank gets a contiguous, equal
// share of the 3-D work.
func BalancedOwner(g *grid.Tripolar, nranks int) *ColumnOwner {
	co := &ColumnOwner{NRanks: nranks, Owner: make([]int, g.NX*g.NY)}
	for i := range co.Owner {
		co.Owner[i] = -1
	}
	var totalWork int64
	for idx := 0; idx < g.NX*g.NY; idx++ {
		_, _, k := g.Column(idx)
		totalWork += int64(k)
	}
	perRank := float64(totalWork) / float64(nranks)
	var acc float64
	rank := 0
	for j := 0; j < g.NY; j++ {
		for ii := 0; ii < g.NX; ii++ {
			i := ii
			if j%2 == 1 {
				i = g.NX - 1 - ii // snake order keeps ranks spatially compact
			}
			idx := j*g.NX + i
			_, _, k := g.Column(idx)
			if k == 0 {
				continue
			}
			co.Owner[idx] = rank
			acc += float64(k)
			if acc >= perRank*float64(rank+1) && rank < nranks-1 {
				rank++
			}
		}
	}
	return co
}

// LoadImbalance returns max/mean active 3-D points per rank (1 = perfect).
// Ranks with zero work count toward the mean, reproducing the waste the
// naive block decomposition suffers over land.
func (co *ColumnOwner) LoadImbalance(g *grid.Tripolar) float64 {
	work := make([]int64, co.NRanks)
	for idx, pe := range co.Owner {
		if pe >= 0 {
			_, _, k := g.Column(idx)
			work[pe] += int64(k)
		}
	}
	var max, sum int64
	for _, w := range work {
		sum += w
		if w > max {
			max = w
		}
	}
	if sum == 0 {
		return 0
	}
	mean := float64(sum) / float64(co.NRanks)
	return float64(max) / mean
}

// HaloNeighbors rebuilds the communication topology after remapping: for
// each rank, the sorted set of other ranks owning columns adjacent (4-way,
// with zonal periodicity) to its columns: the halo partners a compacted
// decomposition would exchange with (§5.2.2).
func (co *ColumnOwner) HaloNeighbors(g *grid.Tripolar) [][]int {
	sets := make([]map[int]bool, co.NRanks)
	for i := range sets {
		sets[i] = make(map[int]bool)
	}
	link := func(a, b int) {
		if a >= 0 && b >= 0 && a != b {
			sets[a][b] = true
			sets[b][a] = true
		}
	}
	for j := 0; j < g.NY; j++ {
		for i := 0; i < g.NX; i++ {
			me := co.Owner[j*g.NX+i]
			link(me, co.Owner[j*g.NX+(i+1)%g.NX])
			if j+1 < g.NY {
				link(me, co.Owner[(j+1)*g.NX+i])
			}
		}
	}
	out := make([][]int, co.NRanks)
	for pe, set := range sets {
		for n := range set {
			out[pe] = append(out[pe], n)
		}
		sort.Ints(out[pe])
	}
	return out
}

// ResourceSaving compares total rank-work capacity needed by the balanced
// mapping against the block mapping at equal per-rank capacity: with land
// removed, the same simulation fits in ~30 % fewer ranks (§5.2.2). It
// returns 1 − wet/total 3-D points, the paper's accounting.
func ResourceSaving(g *grid.Tripolar) float64 {
	active, total := g.ActivePoints3D()
	return 1 - float64(active)/float64(total)
}
