package core

import (
	"fmt"
	"slices"
	"testing"

	"repro/internal/atmos"
	"repro/internal/grid"
	"repro/internal/land"
	"repro/internal/par"
)

// A decomposed rank numbers its land columns as the whole model does
// without holding the whole model's: on an ocean whose tropics are dried,
// so that some non-land atmosphere cells find no wet column and the land
// model adopts them, every column a rank's patch holds sits at the slot the
// whole model's land columns give its cell, natives and adopted alike, the
// adopted cells are land to the atmosphere, and each patch cell reads the
// regridder's column. The owned columns of the ranks together are the
// whole set, once each.
func TestPatchLandNumberingMatchesWhole(t *testing.T) {
	cfg, err := ConfigForLabel("25v10")
	if err != nil {
		t.Fatal(err)
	}
	mesh, err := grid.NewIcosMesh(cfg.AtmLevel)
	if err != nil {
		t.Fatal(err)
	}
	g, err := grid.NewTripolar(cfg.OcnNX, cfg.OcnNY, cfg.OcnNLev)
	if err != nil {
		t.Fatal(err)
	}
	dryTropics(cfg, g)
	rg := NewRegridder(mesh, g)
	if len(rg.Unmapped) == 0 {
		t.Fatal("the dried tropics leave no unmapped cell: the test exercises no adoption")
	}
	whole, err := land.New(mesh, land.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	whole.Adopt(mesh, rg.Unmapped)
	for _, ranks := range []int{2, 3, 4} {
		t.Run(fmt.Sprintf("ranks=%d", ranks), func(t *testing.T) {
			owned := make([][]int, ranks)
			par.Run(ranks, func(c *par.Comm) {
				d, err := grid.NewPatchDecomp(mesh, grid.IcosOwners(mesh, ranks), c)
				if err != nil {
					t.Error(err)
					return
				}
				atm, err := atmos.NewPatch(mesh, d, cfg.AtmNLev, cfg.AtmCfg, nil)
				if err != nil {
					t.Error(err)
					return
				}
				lnd, err := land.New(atm.Mesh, land.DefaultConfig())
				if err != nil {
					t.Error(err)
					return
				}
				e := &ESM{Comm: c, Atm: atm, Lnd: lnd}
				col, unmapped := e.numberLand(mesh, g, wetMask(g))
				if unmapped != len(rg.Unmapped) || e.lnd.total != len(whole.Cells) {
					t.Errorf("rank %d: %d unmapped cells of %d land columns, whole model %d of %d",
						c.Rank(), unmapped, e.lnd.total, len(rg.Unmapped), len(whole.Cells))
				}
				for slot, lc := range lnd.Cells {
					cell := int(atm.Mesh.GlobalCell[lc])
					if w := e.lnd.slot[slot]; whole.Cells[w] != cell || whole.TSoil[w] != lnd.TSoil[slot] {
						t.Errorf("rank %d: column %d (cell %d) sits at slot %d, the whole model's column of cell %d", c.Rank(), slot, cell, w, whole.Cells[w])
						return
					}
					if !atm.IsLand[lc] {
						t.Errorf("rank %d: land column cell %d is not land to the atmosphere", c.Rank(), cell)
					}
				}
				for lc, gi := range col {
					want := rg.AtmToOcn[atm.Mesh.GlobalCell[lc]]
					if atm.IsLand[lc] {
						want = -1
					}
					if int(gi) != want {
						t.Errorf("rank %d: cell %d reads column %d, the regridder's %d", c.Rank(), atm.Mesh.GlobalCell[lc], gi, want)
						return
					}
				}
				for _, slot := range e.lnd.own {
					owned[c.Rank()] = append(owned[c.Rank()], int(e.lnd.slot[slot]))
				}
			})
			all := slices.Concat(owned...)
			slices.Sort(all)
			for i, s := range all {
				if s != i {
					t.Fatalf("the ranks' owned land slots %v… are not the whole set of %d, once each", all[:min(len(all), 8)], len(whole.Cells))
				}
			}
			if len(all) != len(whole.Cells) {
				t.Errorf("the ranks own %d land columns, the whole model has %d", len(all), len(whole.Cells))
			}
		})
	}
}
