package grid

import (
	"testing"

	"repro/internal/par"
)

// tripolarWithDryBlock builds a tripolar grid and dries out one whole block
// of the pbx×pby layout, so land-block elimination has something to drop.
func tripolarWithDryBlock(t *testing.T, nx, ny, nl, pbx, pby, bx, by int) *Tripolar {
	t.Helper()
	g, err := NewTripolar(nx, ny, nl)
	if err != nil {
		t.Fatal(err)
	}
	bni, bnj := nx/pbx, ny/pby
	for j := by * bnj; j < (by+1)*bnj; j++ {
		for i := bx * bni; i < (bx+1)*bni; i++ {
			g.SetLand(j*nx + i)
		}
	}
	return g
}

// The partition contract: the owned blocks of all ranks are disjoint and
// together cover exactly the cells of the wet blocks; Owner agrees with the
// blocks; elimination never drops a wet cell; and DryBlocks accounts for
// every unowned cell.
func TestTripolarPartitionProperties(t *testing.T) {
	g := tripolarWithDryBlock(t, 24, 12, 4, 2, 2, 0, 0)
	par.Run(3, func(c *par.Comm) {
		d, err := NewTripolarDecompLayout(g, c, 2, 2, 1)
		if err != nil {
			t.Error(err)
			return
		}
		n := g.NX * g.NY
		mine := make([]float64, n)
		for lj := 0; lj < d.NJ; lj++ {
			for li := 0; li < d.NI; li++ {
				gi := d.GIdx(li, lj)
				if d.Owner(gi) != c.Rank() {
					t.Errorf("owned index %d reports Owner %d, not this rank %d", gi, d.Owner(gi), c.Rank())
				}
				mine[gi]++
			}
		}
		owners := c.AllreduceSlice(mine, par.OpSum)
		var unowned int
		for gi, cnt := range owners {
			switch {
			case cnt == 0:
				if g.Wet(gi) {
					t.Fatalf("wet cell %d dropped by land-block elimination", gi)
				}
				if pe := d.Owner(gi); pe != -1 {
					t.Fatalf("unowned cell %d reports owner %d", gi, pe)
				}
				unowned++
			case cnt == 1:
				if pe := d.Owner(gi); pe < 0 || pe >= c.Size() {
					t.Fatalf("cell %d owner %d out of range", gi, pe)
				}
			default:
				t.Fatalf("cell %d owned by %v ranks", gi, cnt)
			}
		}
		// DryBlocks covers exactly the unowned cells.
		dry := 0
		for _, db := range d.DryBlocks() {
			dry += db.NI * db.NJ
			for lj := 0; lj < db.NJ; lj++ {
				for li := 0; li < db.NI; li++ {
					if owners[(db.J0+lj)*g.NX+db.I0+li] != 0 {
						t.Fatalf("dry-block cell (%d,%d) is owned", db.I0+li, db.J0+lj)
					}
				}
			}
		}
		if dry != unowned {
			t.Errorf("DryBlocks covers %d cells, but %d are unowned", dry, unowned)
		}
	})
}

// The automatic layout search must also never drop a wet cell and must
// produce one wet block per rank.
func TestTripolarLayoutSearchElimination(t *testing.T) {
	g := tripolarWithDryBlock(t, 24, 12, 4, 2, 2, 0, 0)
	par.Run(3, func(c *par.Comm) {
		d, err := NewTripolarDecomp(g, c, 1)
		if err != nil {
			t.Error(err)
			return
		}
		for gi := 0; gi < g.NX*g.NY; gi++ {
			if g.Wet(gi) && d.Owner(gi) < 0 {
				t.Fatalf("wet cell %d unowned under the searched %dx%d layout", gi, d.PBX, d.PBY)
			}
		}
	})
}

// The pole-fold halo: the ghost row above the folded boundary carries the
// mirrored top row of the partner block — ghost (i, NY) equals owned
// (NX-1-i, NY-1) — and so do the corner ghosts, whose mirrored source
// lies in another block. The south boundary is zero-gradient and x is
// periodic.
func TestTripolarFoldHaloSymmetry(t *testing.T) {
	g, err := NewTripolar(16, 8, 3)
	if err != nil {
		t.Fatal(err)
	}
	enc := func(gi int) float64 { return float64(gi + 1) }
	par.Run(2, func(c *par.Comm) {
		d, err := NewTripolarDecompLayout(g, c, 2, 1, 1)
		if err != nil {
			t.Error(err)
			return
		}
		lni, h := d.LNI(), d.H
		f := d.Alloc()
		for i := range f {
			f[i] = -999 // sentinel: every checked ghost must be overwritten
		}
		for lj := 0; lj < d.NJ; lj++ {
			for li := 0; li < d.NI; li++ {
				f[d.LIdx(li, lj)] = enc(d.GIdx(li, lj))
			}
		}
		d.ExchangeCells(f, 1)

		if d.by != d.PBY-1 {
			t.Fatal("2x1 layout block misses the fold")
		}
		// Fold ghosts over the owned columns.
		for li := 0; li < d.NI; li++ {
			got := f[(h+d.NJ)*lni+h+li]
			want := enc((g.NY-1)*g.NX + (g.NX - 1 - (d.I0 + li)))
			if got != want {
				t.Fatalf("fold ghost at li=%d: got %v, want %v", li, got, want)
			}
		}
		// Fold corner ghosts: the west ghost of the fold row mirrors the
		// west neighbour's eastmost column.
		wCol := (d.I0 - 1 + g.NX) % g.NX
		if got, want := f[(h+d.NJ)*lni], enc((g.NY-1)*g.NX+(g.NX-1-wCol)); got != want {
			t.Fatalf("fold west corner: got %v, want %v", got, want)
		}
		// South boundary: zero-gradient copy of the first owned row.
		for li := 0; li < d.NI; li++ {
			if f[0*lni+h+li] != f[h*lni+h+li] {
				t.Fatalf("south ghost at li=%d not zero-gradient", li)
			}
		}
		// Periodic x ghosts across the rank boundary.
		for lj := 0; lj < d.NJ; lj++ {
			jg := d.J0 + lj
			if got, want := f[(h+lj)*lni], enc(jg*g.NX+wCol); got != want {
				t.Fatalf("west ghost at lj=%d: got %v, want %v", lj, got, want)
			}
			eCol := (d.I0 + d.NI) % g.NX
			if got, want := f[(h+lj)*lni+h+d.NI], enc(jg*g.NX+eCol); got != want {
				t.Fatalf("east ghost at lj=%d: got %v, want %v", lj, got, want)
			}
		}

		// Velocity fields see the fold as a free-slip wall: the ghost rows
		// duplicate the top owned row across the full local width.
		v := d.Alloc()
		for lj := 0; lj < d.NJ; lj++ {
			for li := 0; li < d.NI; li++ {
				v[d.LIdx(li, lj)] = enc(d.GIdx(li, lj))
			}
		}
		d.ExchangeFields([]HaloField{{Data: v, NLev: 1, Vec: true}})
		for x := 0; x < lni; x++ {
			if v[(h+d.NJ)*lni+x] != v[(h+d.NJ-1)*lni+x] {
				t.Fatalf("vec fold ghost at x=%d not free-slip", x)
			}
		}
	})
}

// Halos facing an eliminated block are zero — exact, because ocean and ice
// fields are identically zero over land.
func TestTripolarEliminatedNeighborZeroHalos(t *testing.T) {
	g := tripolarWithDryBlock(t, 24, 12, 4, 2, 2, 0, 0)
	par.Run(3, func(c *par.Comm) {
		d, err := NewTripolarDecompLayout(g, c, 2, 2, 1)
		if err != nil {
			t.Error(err)
			return
		}
		lni, h := d.LNI(), d.H
		f := d.Alloc()
		for i := range f {
			f[i] = 7
		}
		d.ExchangeCells(f, 1)
		switch {
		case d.I0 == 0 && d.J0 > 0:
			// Block (0,1): its south neighbour is the dry block.
			for li := 0; li < d.NI; li++ {
				if f[0*lni+h+li] != 0 {
					t.Fatalf("south ghost toward the dry block is %v, want 0", f[h+li])
				}
			}
		case d.I0 > 0 && d.J0 == 0:
			// Block (1,0): both x neighbours wrap onto the dry block.
			for lj := 0; lj < d.NJ; lj++ {
				if f[(h+lj)*lni] != 0 || f[(h+lj)*lni+h+d.NI] != 0 {
					t.Fatalf("x ghosts toward the dry block not zeroed at lj=%d", lj)
				}
			}
		}
	})
}

// TestTripolarExchangeZeroAllocs pins the batched halo
// exchange to zero steady-state allocations on two layouts: 2×1, the real
// multi-rank path through par.SendF64/RecvF64, and 1×1, where every ghost
// is a local copy. AllocsPerRun measures global mallocs, so a peer's
// matching exchanges must be allocation-free too; it runs exactly runs+1 of
// them (AllocsPerRun's warm-up call plus runs measured calls).
func TestTripolarExchangeZeroAllocs(t *testing.T) {
	g, err := NewTripolar(16, 8, 3)
	if err != nil {
		t.Fatal(err)
	}
	const nlev, runs = 3, 20
	for _, layout := range [][2]int{{2, 1}, {1, 1}} {
		par.Run(layout[0]*layout[1], func(c *par.Comm) {
			d, err := NewTripolarDecompLayout(g, c, layout[0], layout[1], 1)
			if err != nil {
				t.Error(err)
				return
			}
			n2 := d.LNI() * d.LNJ()
			fields := []HaloField{
				{Data: make([]float64, nlev*n2), NLev: nlev},
				{Data: make([]float64, nlev*n2), NLev: nlev, Vec: true},
				{Data: make([]float64, n2), NLev: 1},
			}
			step := func() { d.ExchangeFields(fields) }
			// Warm both parity buffer sets.
			step()
			step()
			c.Barrier()
			if c.Rank() == 0 {
				if avg := testing.AllocsPerRun(runs, step); avg != 0 {
					t.Errorf("%dx%d: halo exchange allocates %v per call in steady state, want 0", layout[0], layout[1], avg)
				}
			} else {
				for i := 0; i < runs+1; i++ {
					step()
				}
			}
			c.Barrier()
		})
	}
}
