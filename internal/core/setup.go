package core

import (
	"cmp"
	"slices"

	"repro/internal/coupler"
	"repro/internal/grid"
)

// Set-up (DESIGN.md "Set-up"). One rank builds both whole grids, the
// regridder over them and the coupling plan from its maps (assembleWhole).
// A decomposed rank builds only its own share, in four steps: the whole
// mesh's topology and the owner table (grid.IcosOwners); its decomposition
// (grid.NewPatchDecomp), which keeps a patch-local owner flag; the
// atmosphere on the patch (atmos.NewPatch), the land columns of the patch
// and the remap rows of its owned ocean block; and the coupling plan from
// its own reads, with one set-up exchange (assemblePatch). The whole mesh,
// the owner table and the ocean's land mask live only until the plan is
// built.

// landCols places the land columns a rank holds in the model's whole set,
// whose slot order a restart writes: total columns in all and, decomposed,
// the whole set's slot of each column held (slot) and the held columns
// whose cell this rank owns (own, ascending) — the ones it audits and
// writes. Both are nil on one rank, where the columns held are the set.
type landCols struct {
	total int
	slot  []int32
	own   []int
}

// assembleWhole builds one rank's land columns and coupling plan from the
// regridder of both whole grids. The unmapped atmosphere cells — non-land
// cells whose spiral search found no wet ocean column — are routed to the
// land model so their surface exchange is never silently dropped: the land
// model adopts them and the atmosphere treats them as land columns. A land
// cell's surface is the land model's skin temperature: it reads no ocean
// column. The regridder is dropped with assembly.
func (e *ESM) assembleWhole(g *grid.Tripolar) error {
	rg := NewRegridder(e.Atm.Mesh, g)
	if len(rg.Unmapped) > 0 {
		e.Lnd.Adopt(e.Atm.Mesh, rg.Unmapped)
		for _, cell := range rg.Unmapped {
			e.Atm.IsLand[cell] = true
		}
	}
	for cell, land := range e.Atm.IsLand {
		if land {
			rg.AtmToOcn[cell] = -1
		}
	}
	e.lnd.total = len(e.Lnd.Cells)
	return e.initDistribute(rg)
}

// numberLand walks every cell of the whole mesh once, in ascending id, and
// numbers the model's land columns as one rank's assembly does — the native
// land cells (grid.IsLand) in ascending id, then the unmapped cells in
// ascending id — holding nothing per cell outside the patch. The land
// model holds the patch's native land columns; numberLand adopts the
// patch's unmapped cells into it and into the atmosphere's land mask, and
// places every held column in the whole set (e.lnd). It returns each patch
// cell's nearest wet ocean column (−1 for a land cell) and the whole
// model's unmapped count.
func (e *ESM) numberLand(mesh *grid.IcosMesh, g *grid.Tripolar, wet []bool) (col []int32, unmapped int) {
	p := e.Atm.Mesh
	col = make([]int32, p.NCells())
	var slots, adopted []int32 // the native columns' slots; the adopted ones' unmapped ranks
	var cells []int            // the patch's unmapped cells, local ids
	natives, lc := 0, 0
	for c := 0; c < mesh.NCells(); c++ {
		in := lc < len(p.GlobalCell) && int(p.GlobalCell[lc]) == c
		// A patch cell's native land flag is the atmosphere's already.
		lon, lat := mesh.LonCell[c], mesh.LatCell[c]
		if in && e.Atm.IsLand[lc] || !in && grid.IsLand(lon, lat) {
			if in {
				slots, col[lc] = append(slots, int32(natives)), -1
			}
			natives++
		} else {
			gi := nearestWet(g, wet, lon, lat)
			if in {
				col[lc] = int32(gi)
			}
			if gi < 0 {
				if in {
					cells, adopted = append(cells, lc), append(adopted, int32(unmapped))
				}
				unmapped++
			}
		}
		if in {
			lc++
		}
	}
	if len(cells) > 0 {
		e.Lnd.Adopt(p, cells)
		for _, lc := range cells {
			e.Atm.IsLand[lc] = true
		}
	}
	for _, u := range adopted {
		slots = append(slots, int32(natives)+u)
	}
	e.lnd = landCols{total: natives + unmapped, slot: slots, own: e.Lnd.Slots(e.Atm.Decomp().Owns)}
	return col, unmapped
}

// assemblePatch builds a decomposed rank's land columns and coupling plan
// from the whole mesh, its owner table and the ocean grid g (see
// distribute.go for the plan): the rows of the owned ocean block and the
// nearest columns of the patch give this rank's reads, and one set-up
// exchange tells every rank what the others read from it, together with
// the overlap-area terms of the cells it owns. Each owned cell sums its
// terms in ascending ocean column, the order the whole grid's rows add
// them in, so the overlap areas are the regridder's bit for bit. It binds
// the ice model's Forcing to the ghost values. Collective.
func (e *ESM) assemblePatch(mesh *grid.IcosMesh, owner []int32, g *grid.Tripolar) error {
	c, d, b := e.Comm, e.Atm.Decomp(), e.Ocn.B
	n := c.Size()
	atmOwner := func(cell int) int { return int(owner[cell]) }
	ocnLocal := func(gi int32) int32 {
		return int32(b.LIdx(int(gi)%b.G.NX-b.I0, int(gi)/b.G.NX-b.J0))
	}
	wet := wetMask(g)
	col, unmapped := e.numberLand(mesh, g, wet)

	// The rows of the owned ocean block. Each overlap term goes to the
	// owner of its atmosphere cell c as the pair (c·NX·NY + column, ŵ·A),
	// whose key orders the terms by cell and then by column.
	nCol := g.NX * g.NY
	send := make([][]float64, n)
	rows := newRemapRows(newCellWalk(mesh), g, wet, b.I0, b.J0, b.NI, b.NJ, func(cell int32, gi int, area float64) {
		q := owner[cell]
		send[q] = append(send[q], float64(int64(cell)*int64(nCol)+int64(gi)), area)
	})

	// This rank's reads, ascending: the atmosphere cells its ocean block
	// reads — each column's nearest cell and its row's overlap cells — and
	// the ocean columns its patch reads.
	cellGhost, colGhost := make([]int32, mesh.NCells()), make([]int32, nCol)
	for _, ac := range rows.OcnToAtm {
		cellGhost[ac] = 1
	}
	for _, ac := range rows.ConsCol {
		cellGhost[ac] = 1
	}
	for _, gi := range col {
		if gi >= 0 {
			colGhost[gi] = 1
		}
	}
	cells, cols := ghostIDs(cellGhost), ghostIDs(colGhost)

	// The set-up exchange: to every rank the overlap terms of its cells,
	// then the cells and the columns this rank reads from it, then the two
	// counts; from every rank, the terms of this rank's cells and what it
	// reads from this one.
	cellsFrom, colsFrom := byOwner(cells, atmOwner, n), byOwner(cols, b.Owner, n)
	for q := range send {
		for _, list := range [][]int32{cellsFrom[q], colsFrom[q]} {
			for _, x := range list {
				send[q] = append(send[q], float64(x))
			}
		}
		send[q] = append(send[q], float64(len(cellsFrom[q])), float64(len(colsFrom[q])))
	}
	recv := c.AlltoallvF64(send)
	askedCells, askedCols := make([][]int32, n), make([][]int32, n)
	nTerms := 0
	for q, m := range recv {
		na, nb := int(m[len(m)-2]), int(m[len(m)-1])
		t := len(m) - 2 - na - nb
		askedCells[q], askedCols[q] = int32s(m[t:t+na]), int32s(m[t+na:t+na+nb])
		recv[q] = m[:t]
		nTerms += t / 2
	}
	type term struct {
		key  int64
		area float64
	}
	mine := make([]term, 0, nTerms)
	for _, m := range recv {
		for i := 0; i < len(m); i += 2 {
			mine = append(mine, term{int64(m[i]), m[i+1]})
		}
	}

	ds := &distState{unmapped: unmapped}
	e.dst = ds
	slices.SortFunc(mine, func(x, y term) int { return cmp.Compare(x.key, y.key) })
	ds.overlap = make([]float64, d.Patch.NCells())
	prev, lc := int64(-1), 0
	for _, t := range mine {
		if cell := t.key / int64(nCol); cell != prev {
			prev, lc = cell, d.LocalCell(int(cell))
		}
		ds.overlap[lc] += t.area
	}

	// atm→ocn: pairs (ocean rank, atmosphere cell), packed by patch-local
	// id; ocn→atm: pairs (atmosphere rank, ocean column), packed by
	// ocean-local index.
	ds.rt = readRouter(cells, atmOwner, askedCells)
	ds.srcCell = make([]int32, 0, ds.rt.NSrc)
	for _, pts := range askedCells {
		for _, cell := range pts {
			ds.srcCell = append(ds.srcCell, int32(d.LocalCell(int(cell))))
		}
	}
	ds.sfcRt = readRouter(cols, b.Owner, askedCols)
	ds.sfcCol = make([]int32, 0, ds.sfcRt.NSrc)
	for _, pts := range askedCols {
		for _, gi := range pts {
			ds.sfcCol = append(ds.sfcCol, ocnLocal(gi))
		}
	}

	// Ghost ids: per patch cell its column's, per owned column in block
	// order its nearest cell's, and per CSR entry its overlap cell's.
	ds.atmOcn = make([]int32, len(col))
	for lc, gi := range col {
		ds.atmOcn[lc] = -1
		if gi >= 0 {
			ds.atmOcn[lc] = colGhost[gi]
		}
	}
	ds.colRef = make([]int32, len(rows.OcnToAtm))
	for k, ac := range rows.OcnToAtm {
		ds.colRef[k] = cellGhost[ac]
	}
	ds.consRef = make([]int32, len(rows.ConsCol))
	for i, ac := range rows.ConsCol {
		ds.consRef[i] = cellGhost[ac]
	}
	// Held for the run: shed the spare capacity append growth left.
	ds.consW, ds.consPtr = slices.Clone(rows.ConsW), rows.ConsPtr

	var err error
	if ds.iceSrc, ds.iceDst, err = vectors(iceFields, ds.rt); err != nil {
		return err
	}
	if ds.consSrc, ds.consDst, err = vectors(consFields, ds.rt); err != nil {
		return err
	}
	if ds.sfcSrc, ds.sfcDst, err = vectors(sfcFields, ds.sfcRt); err != nil {
		return err
	}
	e.bindIceForcing()
	return nil
}

// readRouter builds the router over (reading rank, point) pairs from this
// rank's side of it: reads, the points it reads ascending, each sourced by
// owner(point), and asked[q], the points rank q reads from it ascending,
// which it packs in rank order. It is the router coupler.BuildRouter derives
// from the two offline maps of every rank's reads, without them.
func readRouter(reads []int32, owner func(pt int) int, asked [][]int32) *coupler.Router {
	n := len(asked)
	rt := &coupler.Router{SendTo: make([][]int, n), RecvFrom: make([][]int, n), NDst: len(reads)}
	for i, pt := range reads {
		s := owner(int(pt))
		rt.RecvFrom[s] = append(rt.RecvFrom[s], i)
	}
	for q, pts := range asked {
		for range pts {
			rt.SendTo[q] = append(rt.SendTo[q], rt.NSrc)
			rt.NSrc++
		}
	}
	return rt
}

// int32s converts exchanged ids back from float64.
func int32s(f []float64) []int32 {
	out := make([]int32, len(f))
	for i, x := range f {
		out[i] = int32(x)
	}
	return out
}

// byOwner splits the ascending points into one ascending list per owner.
func byOwner(points []int32, owner func(pt int) int, n int) [][]int32 {
	out := make([][]int32, n)
	for _, pt := range points {
		q := owner(int(pt))
		out[q] = append(out[q], pt)
	}
	return out
}

// ghostIDs turns a mark table over a point space (non-zero: read) into the
// points' ghost ids — each marked point's place among the marked ones, −1
// elsewhere — and returns the marked points, ascending.
func ghostIDs(ghost []int32) []int32 {
	n := 0
	for _, m := range ghost {
		if m != 0 {
			n++
		}
	}
	pts := make([]int32, 0, n)
	for pt, m := range ghost {
		ghost[pt] = -1
		if m != 0 {
			ghost[pt] = int32(len(pts))
			pts = append(pts, int32(pt))
		}
	}
	return pts
}
