package grid

import (
	"math"
	"testing"

	"repro/internal/par"
)

func icosMesh(t testing.TB, level int) *IcosMesh {
	t.Helper()
	m, err := NewIcosMesh(level)
	if err != nil {
		t.Fatalf("NewIcosMesh(%d): %v", level, err)
	}
	return m
}

// decompInvariants checks the structural contract of one rank's
// decomposition: Owner, Owned, OwnedRanges and InExt describe one ownership,
// and the derived halo/edge/vertex sets close the dycore's stencils.
func decompInvariants(t *testing.T, d *IcosDecomp, rank, size int) {
	t.Helper()
	m := d.M
	nc := m.NCells()
	// Owned is ascending and is exactly the cells Owner assigns to this rank.
	owned := make([]bool, nc)
	for i, c := range d.Owned {
		if i > 0 && c <= d.Owned[i-1] {
			t.Fatalf("rank %d: Owned not strictly ascending at %d", rank, i)
		}
		owned[c] = true
	}
	if d.NOwned() != len(d.Owned) {
		t.Fatalf("rank %d: NOwned %d != |Owned| %d", rank, d.NOwned(), len(d.Owned))
	}
	for c := 0; c < nc; c++ {
		o := d.Owner(c)
		if o < 0 || o >= size {
			t.Fatalf("rank %d: Owner(%d) = %d out of range", rank, c, o)
		}
		if owned[c] != (o == rank) {
			t.Fatalf("rank %d: Owner(%d)=%d disagrees with Owned", rank, c, o)
		}
		if owned[c] && !d.InExt(c) {
			t.Fatalf("rank %d: owned cell %d not InExt", rank, c)
		}
	}
	// OwnedRanges is Owned as maximal ascending runs.
	var fromRuns []int
	prevEnd := -1
	for _, r := range d.OwnedRanges() {
		if r[1] <= 0 || r[0] <= prevEnd {
			t.Fatalf("rank %d: run %v not maximal/ascending after end %d", rank, r, prevEnd)
		}
		prevEnd = r[0] + r[1]
		for c := r[0]; c < r[0]+r[1]; c++ {
			fromRuns = append(fromRuns, c)
		}
	}
	if !equalInts(fromRuns, d.Owned) {
		t.Fatalf("rank %d: OwnedRanges expand to %d cells, Owned has %d", rank, len(fromRuns), len(d.Owned))
	}
	// ExtCells = owned ∪ halo, ascending, halo disjoint from owned, and
	// InExt is its membership test.
	for i := 1; i < len(d.ExtCells); i++ {
		if d.ExtCells[i] <= d.ExtCells[i-1] {
			t.Fatalf("rank %d: ExtCells not strictly ascending at %d", rank, i)
		}
	}
	if len(d.ExtCells) != d.NOwned()+len(d.HaloCells) {
		t.Fatalf("rank %d: |ExtCells| %d != owned %d + halo %d", rank, len(d.ExtCells), d.NOwned(), len(d.HaloCells))
	}
	nExt := 0
	for c := 0; c < nc; c++ {
		if d.InExt(c) {
			nExt++
		}
	}
	if nExt != len(d.ExtCells) {
		t.Fatalf("rank %d: InExt holds for %d cells, |ExtCells| = %d", rank, nExt, len(d.ExtCells))
	}
	for _, h := range d.HaloCells {
		if owned[h] || !d.InExt(h) {
			t.Fatalf("rank %d: halo cell %d owned or not InExt", rank, h)
		}
		// Every halo cell is adjacent to an owned cell.
		adj := false
		for _, nb := range m.CellsOnCell[h] {
			if owned[nb] {
				adj = true
			}
		}
		if !adj {
			t.Fatalf("rank %d: halo cell %d not adjacent to owned region", rank, h)
		}
	}
	// Ring-1 closure: every neighbour of an owned cell is in ExtCells.
	for _, c := range d.Owned {
		for _, nb := range m.CellsOnCell[c] {
			if !d.InExt(nb) {
				t.Fatalf("rank %d: neighbour %d of owned %d missing from ExtCells", rank, nb, c)
			}
		}
	}
	// CompEdges are exactly the edges with an owned endpoint; RecvEdges are
	// the extended edges without one; CompVerts' stencils stay inside the
	// extended sets (the no-vertex-exchange guarantee).
	for _, e := range d.CompEdges {
		if !owned[m.CellsOnEdge[e][0]] && !owned[m.CellsOnEdge[e][1]] {
			t.Fatalf("rank %d: CompEdge %d has no owned endpoint", rank, e)
		}
	}
	for _, e := range d.RecvEdges {
		if owned[m.CellsOnEdge[e][0]] || owned[m.CellsOnEdge[e][1]] {
			t.Fatalf("rank %d: RecvEdge %d has an owned endpoint", rank, e)
		}
		if !d.InExtEdge(e) {
			t.Fatalf("rank %d: RecvEdge %d not in ExtEdges", rank, e)
		}
	}
	for _, v := range d.CompVerts {
		for _, e := range m.EdgesOnVertex[v] {
			if !d.InExtEdge(e) {
				t.Fatalf("rank %d: vertex %d stencil edge %d outside ExtEdges", rank, v, e)
			}
		}
		for _, c := range m.CellsOnVertex[v] {
			if !d.InExt(c) {
				t.Fatalf("rank %d: vertex %d stencil cell %d outside ExtCells", rank, v, c)
			}
		}
	}
}

// TestIcosDecompPartitionProperty holds the partition to its contract over
// levels 2–4 × 1–17 ranks, dividing the cell count or not: every cell owned
// exactly once, owned counts within one of each other, the owner table
// identical on every rank, each rank's sets mutually consistent
// (decompInvariants), OwnEdges a partition of the edges — and the patches
// compact: a rank's ring-1 halo is bounded by its perimeter, c·√owned, not
// by its size. (The contiguous-range rule this partition replaced had a
// 321-cell halo for 321 owned cells at level 3 on 2 ranks.)
func TestIcosDecompPartitionProperty(t *testing.T) {
	// A hexagonal disc of n cells has a ring of ≈ 3.5·√n + 3 neighbours;
	// bisection patches are less round (worst measured ratio 5.7 over this
	// grid of cases).
	const haloBoundA, haloBoundB = 6.0, 6.0
	for level := 2; level <= 4; level++ {
		m := icosMesh(t, level)
		nc := m.NCells()
		for ranks := 1; ranks <= 17; ranks++ {
			ds := make([]*IcosDecomp, ranks)
			par.Run(ranks, func(c *par.Comm) {
				d, err := NewIcosDecomp(m, c)
				if err != nil {
					t.Errorf("NewIcosDecomp: %v", err)
					return
				}
				decompInvariants(t, d, c.Rank(), ranks)
				ds[c.Rank()] = d
			})
			if t.Failed() {
				t.Fatalf("level %d ranks %d failed", level, ranks)
			}
			timesOwned := make([]int, nc)
			edges := 0
			minOwned, maxOwned := nc, 0
			for r, d := range ds {
				for c := 0; c < nc; c++ {
					if d.Owner(c) != ds[0].Owner(c) {
						t.Fatalf("level %d ranks %d: rank %d's owner table differs from rank 0's at cell %d", level, ranks, r, c)
					}
				}
				for _, c := range d.Owned {
					timesOwned[c]++
				}
				edges += len(d.OwnEdges)
				minOwned = min(minOwned, d.NOwned())
				maxOwned = max(maxOwned, d.NOwned())
				if bound := haloBoundA*math.Sqrt(float64(d.NOwned())) + haloBoundB; float64(len(d.HaloCells)) > bound {
					t.Errorf("level %d ranks %d rank %d: halo %d cells for %d owned exceeds %.1f — partition not compact",
						level, ranks, r, len(d.HaloCells), d.NOwned(), bound)
				}
			}
			for c, n := range timesOwned {
				if n != 1 {
					t.Fatalf("level %d ranks %d: cell %d owned %d times", level, ranks, c, n)
				}
			}
			if maxOwned-minOwned > 1 {
				t.Fatalf("level %d ranks %d: owned counts span %d..%d", level, ranks, minOwned, maxOwned)
			}
			if edges != m.NEdges() {
				t.Fatalf("level %d ranks %d: OwnEdges sum to %d, want %d", level, ranks, edges, m.NEdges())
			}
		}
	}
}

// TestIcosDecompHaloSymmetry checks that the exchange plans of every rank
// pair mirror each other entry for entry — rank a's send list to b is b's
// receive list from a, in identical order.
func TestIcosDecompHaloSymmetry(t *testing.T) {
	m := icosMesh(t, 2)
	for _, ranks := range []int{2, 3, 4, 5} {
		ds := make([]*IcosDecomp, ranks)
		par.Run(ranks, func(c *par.Comm) {
			d, err := NewIcosDecomp(m, c)
			if err != nil {
				t.Errorf("NewIcosDecomp: %v", err)
				return
			}
			ds[c.Rank()] = d
		})
		peerIdx := func(d *IcosDecomp, r int) int {
			for i, p := range d.Peers {
				if p == r {
					return i
				}
			}
			return -1
		}
		for a := 0; a < ranks; a++ {
			for _, b := range ds[a].Peers {
				ia, ib := peerIdx(ds[a], b), peerIdx(ds[b], a)
				if ib < 0 {
					t.Fatalf("ranks=%d: %d peers with %d but not vice versa", ranks, a, b)
				}
				for _, pl := range []struct {
					name   string
					da, db *haloPlan
				}{{"cell", &ds[a].cells, &ds[b].cells}, {"edge", &ds[a].edges, &ds[b].edges}} {
					send, recv := pl.da.route[0].send[ia], pl.db.route[0].recv[ib]
					if !equalInts(send, recv) {
						t.Fatalf("ranks=%d: %s plan %d→%d asymmetric: send %v recv %v", ranks, pl.name, a, b, send, recv)
					}
				}
			}
		}
	}
}

func equalInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestIcosExchangeMatchesGlobal steps a halo exchange against the brute
// force answer: cell and edge fields initialized to rank-dependent garbage
// outside the owned region must come back bit-identical to the analytic
// global field on every extended index.
func TestIcosExchangeMatchesGlobal(t *testing.T) {
	m := icosMesh(t, 2)
	nc, ne := m.NCells(), m.NEdges()
	const nlev = 3
	cellVal := func(k, c int) float64 { return float64(k*10000+c) + 0.25 }
	edgeVal := func(k, e int) float64 { return -float64(k*10000+e) - 0.75 }
	for _, ranks := range []int{2, 3, 4} {
		par.Run(ranks, func(c *par.Comm) {
			d, err := NewIcosDecomp(m, c)
			if err != nil {
				t.Errorf("NewIcosDecomp: %v", err)
				return
			}
			fc := make([]float64, nlev*nc)
			fe := make([]float64, nlev*ne)
			for i := range fc {
				fc[i] = math.NaN()
			}
			for i := range fe {
				fe[i] = math.NaN()
			}
			for k := 0; k < nlev; k++ {
				for _, cell := range d.Owned {
					fc[cell*nlev+k] = cellVal(k, cell)
				}
				for _, e := range d.CompEdges {
					fe[e*nlev+k] = edgeVal(k, e)
				}
			}
			d.ExchangeCells(fc, nlev)
			d.ExchangeEdges(fe, nlev)
			for k := 0; k < nlev; k++ {
				for _, cell := range d.ExtCells {
					if got, want := fc[cell*nlev+k], cellVal(k, cell); got != want {
						t.Errorf("ranks=%d rank %d: cell %d lev %d = %v, want %v", ranks, c.Rank(), cell, k, got, want)
						return
					}
				}
				for _, e := range d.ExtEdges {
					if got, want := fe[e*nlev+k], edgeVal(k, e); got != want {
						t.Errorf("ranks=%d rank %d: edge %d lev %d = %v, want %v", ranks, c.Rank(), e, k, got, want)
						return
					}
				}
			}

			// A level window refreshes that window of every received column
			// and leaves the other levels alone.
			for _, e := range d.RecvEdges {
				for k := 0; k < nlev; k++ {
					fe[e*nlev+k] = math.NaN()
				}
			}
			d.ExchangeEdgeLevels(fe, nlev, 1, 2)
			for _, e := range d.RecvEdges {
				for k := 0; k < nlev; k++ {
					if got := fe[e*nlev+k]; (k == 1) != (got == edgeVal(k, e)) {
						t.Errorf("ranks=%d rank %d: after the level-1 window, edge %d lev %d = %v", ranks, c.Rank(), e, k, got)
						return
					}
				}
			}
		})
	}
}

// TestIcosExchangeZeroAllocs pins the halo exchange hot path to zero
// steady-state allocations at 2 ranks — the real multi-rank path through
// par.SendF64/RecvF64, not the 1-rank self short-circuit. AllocsPerRun
// measures global mallocs, so the peer rank's matching exchanges must be
// allocation-free too; the peer runs exactly runs+1 of them (AllocsPerRun's
// warm-up call plus runs measured calls).
func TestIcosExchangeZeroAllocs(t *testing.T) {
	m := icosMesh(t, 2)
	nc, ne := m.NCells(), m.NEdges()
	const nlev, runs = 4, 20
	par.Run(2, func(c *par.Comm) {
		d, err := NewIcosDecomp(m, c)
		if err != nil {
			t.Errorf("NewIcosDecomp: %v", err)
			return
		}
		fc := make([]float64, nlev*nc)
		fe := make([]float64, nlev*ne)
		step := func() {
			d.ExchangeCells(fc, nlev)
			d.ExchangeEdges(fe, nlev)
		}
		// Warm both parity buffer sets.
		step()
		step()
		c.Barrier()
		if c.Rank() == 0 {
			avg := testing.AllocsPerRun(runs, step)
			if avg != 0 {
				t.Errorf("halo exchange allocates %v per call in steady state, want 0", avg)
			}
		} else {
			for i := 0; i < runs+1; i++ {
				step()
			}
		}
		c.Barrier()
	})
}

func TestIcosDecompTooManyRanks(t *testing.T) {
	m := icosMesh(t, 0) // 12 cells
	par.Run(1, func(c *par.Comm) {
		if _, err := NewIcosDecomp(m, c); err != nil {
			t.Errorf("1 rank on 12 cells: %v", err)
		}
	})
	// A size larger than the cell count must be rejected, checked directly
	// on the constructor's guard (runs at 13 goroutine ranks).
	par.Run(13, func(c *par.Comm) {
		if _, err := NewIcosDecomp(m, c); err == nil {
			t.Errorf("13 ranks on 12 cells: want error")
		}
	})
}
