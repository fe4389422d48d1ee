package core

import (
	"fmt"
	"slices"
	"sort"

	"repro/internal/coupler"
	"repro/internal/ocean"
)

// The distributed coupling path: with the atmosphere domain-decomposed, no
// rank holds the whole atmosphere any more, so the atm→ocn side of the
// coupler cannot read arbitrary atmosphere cells locally. The cells an
// ocean rank reads are shipped to it instead, through one coupler.Router
// over (ocean rank, atmosphere cell) pairs: for each ocean rank in rank
// order, the distinct atmosphere cells its owned block reads, in ascending
// global id — every owned column's nearest cell (OcnToAtm; dry columns too,
// the ice forcing writes them all) and, under RemapCons, the overlap cells
// (ConsCol) of its owned rows. A pair's source is the cell's atmosphere
// owner, its destination the ocean rank, so the owner packs each owned
// cell's value once per reading rank and a rank's destination vector holds
// one point per cell it reads (its ghost cells):
//
//   - nearest-neighbour mode ships the 7 per-cell atmosphere inputs (u10,
//     v10, tair, qair, gsw, glw, precip), and each owned wet column runs
//     nearestFluxes, the one-rank import's bulk formula, on its nearest
//     cell's ghost — bit-identical because it sees the same operands;
//   - conservative mode ships the 4 per-cell flux parts, and each owned wet
//     column sums its row with consRow, the row function ConsRemap uses,
//     over ghost ids instead of global ids — again bit-identical;
//   - the ice forcing (tair, u10, v10 at the nearest cell) ships a 3-field
//     vector over the same router each base step.
//
// The plan is derived offline on every rank from the ocean block ownership
// and the regridder, with no communication (§5.2.4's offline path). The
// ocn→atm surface return stays replicated (refreshOceanSurface gathers and
// broadcasts SST/ice), which keeps the ring-1 halo's SST valid for the
// redundant physics columns without an extra exchange.
//
// All vectors are persistent, so the per-step pack/rearrange/consume cycle
// is allocation-free in steady state (the rearranger's own guarantee plus
// the preallocated AttrVects here).

var nnFields = []string{"u10", "v10", "tair", "qair", "gsw", "glw", "precip"}
var iceFields = []string{"tair", "u10", "v10"}
var consFields = []string{"taux", "tauy", "qnet", "emp"}

type distState struct {
	// The router over the (ocean rank, atmosphere cell) pair space, and per
	// pair this rank packs (ascending pair index) its cell, a local id.
	rt      *coupler.Router
	srcCell []int32

	// Ghost ids — points of the destination vectors, the cells this rank's
	// ocean block reads in ascending global id: per owned column in block
	// order its nearest cell, and per CSR entry of the owned rows in
	// ascending p its overlap cell (nil unless RemapCons).
	colRef  []int32
	consRef []int32

	// The rearranged field sets: ice forcing always, the conservative flux
	// parts under RemapCons, the nearest-neighbour inputs under RemapNN.
	iceSrc, iceDst   *coupler.AttrVect
	consSrc, consDst *coupler.AttrVect
	nnSrc, nnDst     *coupler.AttrVect
}

// readCells returns, per ocean rank, the distinct atmosphere cells its owned
// block reads, ascending: each owned column's nearest cell and, under
// RemapCons, the overlap cells of its row. Columns of land-eliminated
// blocks belong to no rank and are read by none.
func (e *ESM) readCells(n int) [][]int32 {
	cells := make([][]int32, n)
	rg := e.Rg
	for gi, ac := range rg.OcnToAtm {
		q := e.Ocn.B.Owner(gi)
		if q < 0 {
			continue
		}
		cells[q] = append(cells[q], int32(ac))
		if e.remap == RemapCons {
			cells[q] = append(cells[q], rg.ConsCol[rg.ConsPtr[gi]:rg.ConsPtr[gi+1]]...)
		}
	}
	for q, cs := range cells {
		slices.Sort(cs)
		cells[q] = slices.Compact(cs)
	}
	return cells
}

// initDistribute builds the rearrange plan once at assembly. Both GSMaps
// are derived from rank-independent data, so every rank computes identical
// maps with no communication. The atmosphere cells this rank packs from are
// kept as patch-local ids.
func (e *ESM) initDistribute() error {
	d := e.Atm.Decomp()
	c := e.Comm
	n, me := c.Size(), c.Rank()

	// Pair k in [off[q], off[q+1]) is (ocean rank q, atmosphere cell
	// pairCell[k]).
	cells := e.readCells(n)
	off := make([]int, n+1)
	for q, cs := range cells {
		off[q+1] = off[q] + len(cs)
	}
	pairCell := slices.Concat(cells...)
	srcMap, err := coupler.OfflineGSMap(func(k int) int { return d.Owner(int(pairCell[k])) }, len(pairCell), n)
	if err != nil {
		return fmt.Errorf("core: coupling source map: %w", err)
	}
	dstMap, err := coupler.OfflineGSMap(func(k int) int { return sort.SearchInts(off, k+1) - 1 }, len(pairCell), n)
	if err != nil {
		return fmt.Errorf("core: coupling destination map: %w", err)
	}
	ds := &distState{}
	if ds.rt, err = coupler.BuildRouter(c, srcMap, dstMap); err != nil {
		return fmt.Errorf("core: coupling router: %w", err)
	}
	ds.srcCell = make([]int32, 0, ds.rt.NSrc)
	for _, k := range srcMap.LocalIndices(me) {
		ds.srcCell = append(ds.srcCell, int32(d.LocalCell(int(pairCell[k]))))
	}

	mine := cells[me]
	ghost := func(cell int32) int32 {
		i, _ := slices.BinarySearch(mine, cell)
		return int32(i)
	}
	b, rg := e.Ocn.B, e.Rg
	for lj := 0; lj < b.NJ; lj++ {
		for li := 0; li < b.NI; li++ {
			gi := b.GIdx(li, lj)
			ds.colRef = append(ds.colRef, ghost(int32(rg.OcnToAtm[gi])))
			if e.remap == RemapCons {
				for _, cell := range rg.ConsCol[rg.ConsPtr[gi]:rg.ConsPtr[gi+1]] {
					ds.consRef = append(ds.consRef, ghost(cell))
				}
			}
		}
	}
	// Held for the run: shed the spare capacity append growth left.
	ds.colRef, ds.consRef = slices.Clone(ds.colRef), slices.Clone(ds.consRef)

	if ds.iceSrc, ds.iceDst, err = ds.vectors(iceFields); err != nil {
		return err
	}
	if e.remap == RemapCons {
		ds.consSrc, ds.consDst, err = ds.vectors(consFields)
	} else {
		ds.nnSrc, ds.nnDst, err = ds.vectors(nnFields)
	}
	if err != nil {
		return err
	}
	e.dst = ds
	return nil
}

// vectors allocates the source and destination vectors of one field set.
func (ds *distState) vectors(fields []string) (src, dst *coupler.AttrVect, err error) {
	if src, err = coupler.NewAttrVect(fields, ds.rt.NSrc); err != nil {
		return nil, nil, err
	}
	dst, err = coupler.NewAttrVect(fields, ds.rt.NDst)
	return src, dst, err
}

// rearrange ships one packed field set to the ocean ranks that read it.
func (e *ESM) rearrange(src, dst *coupler.AttrVect, what string) {
	var o coupler.Observer
	if ob, ok := e.obs.(coupler.Observer); ok {
		o = ob
	}
	if err := coupler.RearrangeInto(e.Comm, e.dst.rt, src, dst, coupler.ModeP2P, o); err != nil {
		panic(fmt.Sprintf("core: %s rearrange: %v", what, err))
	}
}

// importNearestDistributed is importNearest with the atmosphere inputs
// arriving by rearrange instead of by local-array lookup: each owned
// column reads its nearest cell's ghost, so the bulk formulas see exactly
// the operands the one-rank path reads.
func (e *ESM) importNearestDistributed() {
	ds := e.dst
	a := e.Atm
	a.Wind10mInto(e.u10, e.v10)
	pu, pv := ds.nnSrc.MustField("u10"), ds.nnSrc.MustField("v10")
	pt, pq := ds.nnSrc.MustField("tair"), ds.nnSrc.MustField("qair")
	psw, plw := ds.nnSrc.MustField("gsw"), ds.nnSrc.MustField("glw")
	ppr := ds.nnSrc.MustField("precip")
	for i, ac := range ds.srcCell {
		pu[i], pv[i] = e.u10[ac], e.v10[ac]
		pt[i], pq[i] = a.SurfaceAir(int(ac))
		psw[i], plw[i] = a.GSW[ac], a.GLW[ac]
		ppr[i] = a.Precip[ac]
	}
	e.rearrange(ds.nnSrc, ds.nnDst, "nn")

	o := e.Ocn
	b := o.B
	du, dv := ds.nnDst.MustField("u10"), ds.nnDst.MustField("v10")
	dt, dq := ds.nnDst.MustField("tair"), ds.nnDst.MustField("qair")
	dsw, dlw := ds.nnDst.MustField("gsw"), ds.nnDst.MustField("glw")
	dpr := ds.nnDst.MustField("precip")
	for lj := 0; lj < b.NJ; lj++ {
		for li := 0; li < b.NI; li++ {
			if !o.G.Mask[b.GIdx(li, lj)] {
				continue
			}
			p := ds.colRef[lj*b.NI+li] // colRef is in block order
			e.nearestFluxes(b.LIdx(li, lj), du[p], dv[p], dt[p], dq[p], dsw[p], dlw[p], dpr[p])
		}
	}
}

// importConservativeDistributed delivers the conservative flux remap: each
// rank ships the flux parts of its owned cells to the ocean ranks that read
// them, and each owned wet ocean column sums its row with consRow over its
// entries' ghost ids — the same weights, the same products and the same
// ascending-p order as ConsRemap, so the result is bit-identical to the
// one-rank remap.
func (e *ESM) importConservativeDistributed() {
	ds := e.dst
	f := e.af
	ptx, pty := ds.consSrc.MustField("taux"), ds.consSrc.MustField("tauy")
	pqn, pem := ds.consSrc.MustField("qnet"), ds.consSrc.MustField("emp")
	for i, ac := range ds.srcCell {
		ptx[i], pty[i] = f.taux[ac], f.tauy[ac]
		pqn[i], pem[i] = f.qnet[ac], f.emp[ac]
	}
	e.rearrange(ds.consSrc, ds.consDst, "cons")

	o := e.Ocn
	b := o.B
	rg := e.Rg
	h0 := firstLayerDepth(o)
	dtx, dty := ds.consDst.MustField("taux"), ds.consDst.MustField("tauy")
	dqn, dem := ds.consDst.MustField("qnet"), ds.consDst.MustField("emp")
	pos := 0 // consRef is the owned rows' entries in block order
	for lj := 0; lj < b.NJ; lj++ {
		for li := 0; li < b.NI; li++ {
			idx := b.LIdx(li, lj)
			gi := b.GIdx(li, lj)
			lo, hi := rg.ConsPtr[gi], rg.ConsPtr[gi+1]
			w, ref := rg.ConsW[lo:hi], ds.consRef[pos:pos+int(hi-lo)]
			pos += int(hi - lo)
			if !o.G.Mask[gi] {
				continue
			}
			o.TauX[idx] = consRow(w, ref, dtx)
			o.TauY[idx] = consRow(w, ref, dty)
			o.QHeat[idx] = consRow(w, ref, dqn) + e.Ice.FreezeHeat[idx]
			o.FWFlux[idx] = ocean.SRef * consRow(w, ref, dem) / (ocean.Rho0 * h0)
		}
	}
}

// iceForcingDistributed routes the ice model's atmosphere forcing (air
// temperature and 10 m wind at each column's nearest atmosphere cell)
// through the coupling router, replacing iceStep's local lookups.
func (e *ESM) iceForcingDistributed() {
	ds := e.dst
	a := e.Atm
	a.Wind10mInto(e.u10, e.v10)
	pt := ds.iceSrc.MustField("tair")
	pu, pv := ds.iceSrc.MustField("u10"), ds.iceSrc.MustField("v10")
	for i, ac := range ds.srcCell {
		pt[i], _ = a.SurfaceAir(int(ac))
		pu[i], pv[i] = e.u10[ac], e.v10[ac]
	}
	e.rearrange(ds.iceSrc, ds.iceDst, "ice")

	ice := e.Ice
	b := ice.B
	dt := ds.iceDst.MustField("tair")
	du, dv := ds.iceDst.MustField("u10"), ds.iceDst.MustField("v10")
	for lj := 0; lj < b.NJ; lj++ {
		for li := 0; li < b.NI; li++ {
			idx := b.LIdx(li, lj)
			p := ds.colRef[lj*b.NI+li]
			ice.TAir[idx] = dt[p]
			ice.WindU[idx] = du[p]
			ice.WindV[idx] = dv[p]
			ice.SST[idx] = e.Ocn.T[e.ocnIdx2(li, lj)] + 273.15
		}
	}
}
