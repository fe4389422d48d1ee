package grid

import (
	"fmt"
	"math"
	"slices"
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
func decompInvariants(t *testing.T, m *IcosMesh, d *IcosDecomp, rank, size int) {
	t.Helper()
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
		for _, nb := range m.CellsOnCell(h) {
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
		for _, nb := range m.CellsOnCell(c) {
			if !d.InExt(int(nb)) {
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
	// ExtEdges is the disjoint union of CompEdges and RecvEdges, and the
	// edge plan receives every RecvEdge exactly once and nothing else: after
	// ExchangeEdges every patch edge holds a value computed this substep,
	// which is what lets the dycore advance U in place.
	comp := make([]bool, m.NEdges())
	for _, e := range d.CompEdges {
		comp[e] = true
		if !d.InExtEdge(e) {
			t.Fatalf("rank %d: CompEdge %d not in ExtEdges", rank, e)
		}
	}
	if len(d.ExtEdges) != len(d.CompEdges)+len(d.RecvEdges) {
		t.Fatalf("rank %d: |ExtEdges| %d != |CompEdges| %d + |RecvEdges| %d",
			rank, len(d.ExtEdges), len(d.CompEdges), len(d.RecvEdges))
	}
	for _, e := range d.RecvEdges {
		if comp[e] {
			t.Fatalf("rank %d: edge %d is both computed and received", rank, e)
		}
	}
	for v, rt := range d.edges.route {
		received := make([]int, m.NEdges())
		for _, list := range rt.recv {
			for _, le := range list {
				received[d.Patch.GlobalEdge[le]]++
			}
		}
		if len(rt.dst) != 0 || len(rt.zero) != 0 {
			t.Fatalf("rank %d: edge route %d copies or zeroes %d/%d points", rank, v, len(rt.dst), len(rt.zero))
		}
		for _, e := range d.RecvEdges {
			if received[e] != 1 {
				t.Fatalf("rank %d: edge route %d receives RecvEdge %d %d times", rank, v, e, received[e])
			}
			received[e] = 0
		}
		for e, n := range received {
			if n != 0 {
				t.Fatalf("rank %d: edge route %d receives edge %d, which is not a RecvEdge", rank, v, e)
			}
		}
	}
	for _, v := range d.CompVerts {
		for _, e := range m.EdgesOnVertex[v] {
			if !d.InExtEdge(int(e)) {
				t.Fatalf("rank %d: vertex %d stencil edge %d outside ExtEdges", rank, v, e)
			}
		}
		for _, c := range m.CellsOnVertex[v] {
			if !d.InExt(int(c)) {
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
				decompInvariants(t, m, d, c.Rank(), ranks)
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
					// Each side lists its own patch's local ids: compare
					// them as global ids.
					cells := pl.da == &ds[a].cells
					send := globalIDs(ds[a], pl.da.route[0].send[ia], cells)
					recv := globalIDs(ds[b], pl.db.route[0].recv[ib], cells)
					if !equalInts(send, recv) {
						t.Fatalf("ranks=%d: %s plan %d→%d asymmetric: send %v recv %v", ranks, pl.name, a, b, send, recv)
					}
				}
			}
		}
	}
}

// globalIDs maps a list of d's patch-local cell (or edge) ids to global ids.
func globalIDs(d *IcosDecomp, local []int, cells bool) []int {
	ids := d.Patch.GlobalEdge
	if cells {
		ids = d.Patch.GlobalCell
	}
	out := make([]int, len(local))
	for i, l := range local {
		out[i] = int(ids[l])
	}
	return out
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
			// The fields live on the patch; every global id goes through
			// the patch's local ids.
			lc, le := d.LocalCell, d.LocalEdge
			fc := make([]float64, nlev*d.Patch.NCells())
			fe := make([]float64, nlev*d.Patch.NEdges())
			for i := range fc {
				fc[i] = math.NaN()
			}
			for i := range fe {
				fe[i] = math.NaN()
			}
			for k := 0; k < nlev; k++ {
				for _, cell := range d.Owned {
					fc[lc(cell)*nlev+k] = cellVal(k, cell)
				}
				for _, e := range d.CompEdges {
					fe[le(e)*nlev+k] = edgeVal(k, e)
				}
			}
			d.ExchangeCells(fc, nlev)
			d.ExchangeEdges(fe, nlev)
			for k := 0; k < nlev; k++ {
				for _, cell := range d.ExtCells {
					if got, want := fc[lc(cell)*nlev+k], cellVal(k, cell); got != want {
						t.Errorf("ranks=%d rank %d: cell %d lev %d = %v, want %v", ranks, c.Rank(), cell, k, got, want)
						return
					}
				}
				for _, e := range d.ExtEdges {
					if got, want := fe[le(e)*nlev+k], edgeVal(k, e); got != want {
						t.Errorf("ranks=%d rank %d: edge %d lev %d = %v, want %v", ranks, c.Rank(), e, k, got, want)
						return
					}
				}
			}

			// A level window refreshes that window of every received column
			// and leaves the other levels alone.
			for _, e := range d.RecvEdges {
				for k := 0; k < nlev; k++ {
					fe[le(e)*nlev+k] = math.NaN()
				}
			}
			d.ExchangeEdgeLevels(fe, nlev, 1, 2)
			for _, e := range d.RecvEdges {
				for k := 0; k < nlev; k++ {
					if got := fe[le(e)*nlev+k]; (k == 1) != (got == edgeVal(k, e)) {
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

// TestIcosPatchIsRestrictedMesh holds every rank's patch to its contract:
// it is the global mesh restricted to ExtCells, ExtEdges and CompVerts,
// numbered in ascending global id. Every slot, edge pair and vertex triple
// maps through the patch's global maps to the global entry in the same
// order, −1 exactly where the neighbour lies outside the patch; nothing a
// model sweep reaches is −1; the halo plans are local and ascending; and the
// copied geometry is the global mesh's, bit for bit.
func TestIcosPatchIsRestrictedMesh(t *testing.T) {
	type run struct{ level, ranks int }
	var runs []run
	for level := 2; level <= 4; level++ {
		for ranks := 1; ranks <= 17; ranks++ {
			runs = append(runs, run{level, ranks})
		}
	}
	runs = append(runs, run{5, 2}, run{5, 8})
	meshes := map[int]*IcosMesh{}
	for _, r := range runs {
		m := meshes[r.level]
		if m == nil {
			m = icosMesh(t, r.level)
			meshes[r.level] = m
		}
		par.Run(r.ranks, func(c *par.Comm) {
			d, err := NewIcosDecomp(m, c)
			if err != nil {
				t.Errorf("NewIcosDecomp: %v", err)
				return
			}
			if err := patchInvariants(m, d); err != nil {
				t.Errorf("level %d, %d ranks, rank %d: %v", r.level, r.ranks, c.Rank(), err)
			}
		})
		if t.Failed() {
			t.FailNow()
		}
	}
}

// patchInvariants checks one rank's patch against the global mesh m.
func patchInvariants(m *IcosMesh, d *IcosDecomp) error {
	p := d.Patch
	// Local ids ascend in global id and cover exactly the patch's sets.
	for _, ids := range []struct {
		name   string
		global []int32
		want   []int
	}{{"cells", p.GlobalCell, d.ExtCells}, {"edges", p.GlobalEdge, d.ExtEdges}, {"vertices", p.GlobalVertex, d.CompVerts}} {
		if len(ids.global) != len(ids.want) {
			return fmt.Errorf("%d local %s, want %d", len(ids.global), ids.name, len(ids.want))
		}
		for i, g := range ids.global {
			if int(g) != ids.want[i] || (i > 0 && g <= ids.global[i-1]) {
				return fmt.Errorf("local %s %d is global %d: not the ascending set", ids.name, i, g)
			}
		}
	}
	if p.NCells() != len(p.GlobalCell) || p.NEdges() != len(p.GlobalEdge) || p.NVertices() != len(p.GlobalVertex) {
		return fmt.Errorf("patch holds %d/%d/%d elements for %d/%d/%d ids",
			p.NCells(), p.NEdges(), p.NVertices(), len(p.GlobalCell), len(p.GlobalEdge), len(p.GlobalVertex))
	}
	// A local reference must name the global one, or be −1 exactly where
	// the global one lies outside the patch.
	inPatch := func(global []int32, g int32) bool {
		_, ok := slices.BinarySearch(global, g)
		return ok
	}
	same := func(what string, global []int32, local, g int32) error {
		switch {
		case local < 0 && inPatch(global, g):
			return fmt.Errorf("%s is −1, but global %d is in the patch", what, g)
		case local >= 0 && (int(local) >= len(global) || global[local] != g):
			return fmt.Errorf("%s is local %d, want global %d", what, local, g)
		}
		return nil
	}
	for i, g := range p.GlobalCell {
		lo, hi := p.Slots(i)
		glo, ghi := m.Slots(int(g))
		if hi-lo != ghi-glo {
			return fmt.Errorf("cell %d has %d slots, global cell %d has %d", i, hi-lo, g, ghi-glo)
		}
		for j := 0; j < hi-lo; j++ {
			s, gs := lo+j, glo+j
			what := fmt.Sprintf("cell %d slot %d", i, j)
			if err := same(what+" edge", p.GlobalEdge, p.SlotEdge[s], m.SlotEdge[gs]); err != nil {
				return err
			}
			if err := same(what+" neighbour", p.GlobalCell, p.SlotCell[s], m.SlotCell[gs]); err != nil {
				return err
			}
			if p.SlotSign[s] != m.SlotSign[gs] {
				return fmt.Errorf("%s sign %d, want %d", what, p.SlotSign[s], m.SlotSign[gs])
			}
			// Every cell's edges are in the patch: the cell sweeps read them.
			if p.SlotEdge[s] < 0 {
				return fmt.Errorf("%s edge is −1", what)
			}
		}
	}
	for i, g := range p.GlobalEdge {
		for j := 0; j < 2; j++ {
			what := fmt.Sprintf("edge %d end %d", i, j)
			if err := same(what+" cell", p.GlobalCell, p.CellsOnEdge[i][j], m.CellsOnEdge[g][j]); err != nil {
				return err
			}
			if err := same(what+" vertex", p.GlobalVertex, p.VerticesOnEdge[i][j], m.VerticesOnEdge[g][j]); err != nil {
				return err
			}
		}
	}
	for i, g := range p.GlobalVertex {
		for j := 0; j < 3; j++ {
			what := fmt.Sprintf("vertex %d corner %d", i, j)
			if err := same(what+" edge", p.GlobalEdge, p.EdgesOnVertex[i][j], m.EdgesOnVertex[g][j]); err != nil {
				return err
			}
			if err := same(what+" cell", p.GlobalCell, p.CellsOnVertex[i][j], m.CellsOnVertex[g][j]); err != nil {
				return err
			}
			// Every vertex is a computed vertex: its stencil is in the patch.
			if p.EdgesOnVertex[i][j] < 0 || p.CellsOnVertex[i][j] < 0 {
				return fmt.Errorf("%s reaches outside the patch", what)
			}
		}
		if p.EdgeSignOnVtx[i] != m.EdgeSignOnVtx[g] {
			return fmt.Errorf("vertex %d signs %v, want %v", i, p.EdgeSignOnVtx[i], m.EdgeSignOnVtx[g])
		}
	}
	// The two sweep lists are the global ones in local ids, and reach no −1.
	for _, sw := range []struct {
		name   string
		local  []int
		global []int
		ids    []int32
	}{{"OwnedLocal", d.OwnedLocal, d.Owned, p.GlobalCell}, {"CompEdgesLocal", d.CompEdgesLocal, d.CompEdges, p.GlobalEdge}} {
		if len(sw.local) != len(sw.global) {
			return fmt.Errorf("%s has %d entries, want %d", sw.name, len(sw.local), len(sw.global))
		}
		for i, l := range sw.local {
			if int(sw.ids[l]) != sw.global[i] {
				return fmt.Errorf("%s[%d] = local %d, want global %d", sw.name, i, l, sw.global[i])
			}
		}
	}
	for _, c := range d.OwnedLocal {
		for _, nb := range p.CellsOnCell(c) {
			if nb < 0 {
				return fmt.Errorf("owned cell %d has a neighbour outside the patch", c)
			}
		}
	}
	for _, e := range d.CompEdgesLocal {
		ce, ve := p.CellsOnEdge[e], p.VerticesOnEdge[e]
		if min(ce[0], ce[1], ve[0], ve[1]) < 0 {
			return fmt.Errorf("computed edge %d has cells %v, vertices %v", e, ce, ve)
		}
	}
	// The halo plans list local ids, ascending.
	for _, pl := range []struct {
		name string
		plan *haloPlan
		n    int
	}{{"cell", &d.cells, p.NCells()}, {"edge", &d.edges, p.NEdges()}} {
		for pi := range pl.plan.peers {
			for _, list := range [][]int{pl.plan.route[0].send[pi], pl.plan.route[0].recv[pi]} {
				for i, x := range list {
					if x < 0 || x >= pl.n || (i > 0 && x <= list[i-1]) {
						return fmt.Errorf("%s plan list for peer %d: entry %d = %d, not local and ascending", pl.name, pl.plan.peers[pi], i, x)
					}
				}
			}
		}
	}
	// Geometry is copied per element, bit for bit.
	vecs := func(name string, got, all []Vec3, ids []int32) error {
		for i, g := range ids {
			a, b := got[i], all[g]
			if math.Float64bits(a.X) != math.Float64bits(b.X) || math.Float64bits(a.Y) != math.Float64bits(b.Y) ||
				math.Float64bits(a.Z) != math.Float64bits(b.Z) {
				return fmt.Errorf("%s[%d] = %v, global %d has %v", name, i, a, g, b)
			}
		}
		return nil
	}
	floats := func(name string, got, all []float64, ids []int32) error {
		for i, g := range ids {
			if math.Float64bits(got[i]) != math.Float64bits(all[g]) {
				return fmt.Errorf("%s[%d] = %v, global %d has %v", name, i, got[i], g, all[g])
			}
		}
		return nil
	}
	for _, err := range []error{
		vecs("CellCenter", p.CellCenter, m.CellCenter, p.GlobalCell),
		vecs("VertexPos", p.VertexPos, m.VertexPos, p.GlobalVertex),
		vecs("EdgeMidpoint", p.EdgeMidpoint, m.EdgeMidpoint, p.GlobalEdge),
		floats("AreaCell", p.AreaCell, m.AreaCell, p.GlobalCell),
		floats("AreaDual", p.AreaDual, m.AreaDual, p.GlobalVertex),
		floats("Dc", p.Dc, m.Dc, p.GlobalEdge),
		floats("Dv", p.Dv, m.Dv, p.GlobalEdge),
		floats("LatCell", p.LatCell, m.LatCell, p.GlobalCell),
		floats("LonCell", p.LonCell, m.LonCell, p.GlobalCell),
	} {
		if err != nil {
			return err
		}
	}
	if p.Level != m.Level {
		return fmt.Errorf("patch level %d, mesh level %d", p.Level, m.Level)
	}
	return nil
}
