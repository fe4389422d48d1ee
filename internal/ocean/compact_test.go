package ocean

import (
	"testing"

	"repro/internal/grid"
	"repro/internal/par"
	"repro/internal/pp"
)

// The compaction maps must compose with the 2-D block partition: per-block
// packed indices round-trip through the full local offset and the global
// column index, land never gets a slot, and the packed views of all ranks
// scatter back into exactly one global surface field — including when
// land-block elimination removes a block from the layout entirely.
func TestCompactionComposesWithBlockPartition(t *testing.T) {
	cases := []struct {
		name     string
		ranks    int
		dryBlock bool
	}{
		{"full-2x2", 4, false},
		{"eliminated-block-2x2", 3, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			g, err := grid.NewTripolar(48, 24, 6)
			if err != nil {
				t.Fatal(err)
			}
			if tc.dryBlock {
				// Dry out block (0,0) of the 2x2 layout.
				for j := 0; j < 12; j++ {
					for i := 0; i < 24; i++ {
						g.SetLand(j*g.NX + i)
					}
				}
			}
			par.Run(tc.ranks, func(c *par.Comm) {
				b, err := grid.NewTripolarDecompLayout(g, c, 2, 2, 1)
				if err != nil {
					t.Error(err)
					return
				}
				o, err := New(g, b, DefaultConfig(), pp.Serial{})
				if err != nil {
					t.Error(err)
					return
				}
				comp := o.Compact()
				f2c := comp.FullToCompact()
				c2g := comp.CompactToGlobal()

				// Round trip: packed slot -> global column -> owning rank and
				// local offset -> the same packed slot.
				for ci, gi := range c2g {
					if pe := b.Owner(gi); pe != c.Rank() {
						t.Fatalf("packed slot %d holds global %d owned by rank %d", ci, gi, pe)
					}
					li, lj := gi%g.NX-b.I0, gi/g.NX-b.J0
					if back := f2c[lj*b.NI+li]; back != ci {
						t.Fatalf("slot %d -> global %d -> slot %d", ci, gi, back)
					}
				}
				// Land never gets a slot; every wet owned cell does.
				for lj := 0; lj < b.NJ; lj++ {
					for li := 0; li < b.NI; li++ {
						wet := g.Wet(b.GIdx(li, lj))
						if (f2c[lj*b.NI+li] >= 0) != wet {
							t.Fatalf("compact map/mask mismatch at local (%d,%d)", li, lj)
						}
					}
				}

				// All ranks' packed surface temperatures scatter into one
				// global field that matches the gathered full field.
				scatter := make([]float64, g.NX*g.NY)
				for ci, gi := range c2g {
					cl := comp.cols[ci]
					scatter[gi] = o.T[o.idx2(cl[0], cl[1])]
				}
				global := c.AllreduceSlice(scatter, par.OpSum)
				ref := o.B.GatherGlobal(o.T[:o.LNI*o.LNJ])
				if c.Rank() == 0 {
					for gi := range ref {
						if !g.Wet(gi) {
							if global[gi] != 0 {
								t.Fatalf("land column %d scattered %v", gi, global[gi])
							}
							continue
						}
						if global[gi] != ref[gi] {
							t.Fatalf("scattered T at %d = %v, gathered %v", gi, global[gi], ref[gi])
						}
					}
				}
			})
		})
	}
}
