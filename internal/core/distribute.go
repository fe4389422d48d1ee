package core

import (
	"fmt"
	"slices"
	"sort"

	"repro/internal/coupler"
	"repro/internal/ocean"
)

// The atm→ocn coupling: every owned ocean column reads its atmosphere
// values through ghost ids, at every rank count — colRef holds one per
// owned column (its nearest cell, OcnToAtm; dry columns too, the ice
// forcing writes them all) and, under RemapCons, consRef one per CSR entry
// of its row (its overlap cell, ConsCol, beside its weight in consW). One
// import per remap mode and one ice forcing read them:
//
//   - nearest-neighbour mode reads the 7 per-cell atmosphere inputs (u10,
//     v10, tair, qair, gsw, glw, precip) at each owned wet column's nearest
//     cell and runs nearestFluxes, the bulk formula;
//   - conservative mode reads the 4 per-cell flux parts and sums each owned
//     wet column's row with consRow in ascending p;
//   - the ice forcing reads tair, u10 and v10 at each column's nearest cell.
//
// Only where the ghost values come from depends on the rank count. On one
// rank the atmosphere is not decomposed, a ghost id is the global cell id
// and the values are the atmosphere's own arrays (plus the surface air,
// filled per cell from SurfaceAir): no router, no vectors. Decomposed, no
// rank holds the whole atmosphere, so the cells an ocean rank reads are
// shipped to it through one coupler.Router over (ocean rank, atmosphere
// cell) pairs: for each ocean rank in rank order, the distinct cells its
// owned block reads, in ascending global id. A pair's source is the cell's
// atmosphere owner, its destination the ocean rank, so the owner packs each
// owned cell's value once per reading rank, a rank's destination vector
// holds one point per cell it reads, and a ghost id is a point of that
// vector. The owner packs the values the one-rank path reads, so every
// rank count evaluates the same expressions on the same operands, bit for
// bit.
//
// The plan is derived offline on every rank from the ocean block ownership
// and the regridder, with no communication (§5.2.4's offline path). The
// regridder covers both whole grids, so assembly builds it, copies out the
// rows of the owned ocean columns and the atmosphere cells of the patch,
// and drops it: a decomposed rank holds no regridder table of global size.
// The ocn→atm surface return stays replicated (exportSurface gathers and
// broadcasts SST/ice for the call and keeps only what the atmosphere patch
// reads), which keeps the ring-1 halo's SST valid for the redundant
// physics columns without an extra exchange.
//
// All buffers and vectors are persistent, so the per-step fill/consume
// cycle is allocation-free in steady state (the rearranger's own guarantee
// plus the preallocated AttrVects here).

var nnFields = []string{"u10", "v10", "tair", "qair", "gsw", "glw", "precip"}
var iceFields = []string{"tair", "u10", "v10"}
var consFields = []string{"taux", "tauy", "qnet", "emp"}

type distState struct {
	// The router over the (ocean rank, atmosphere cell) pair space, and per
	// pair this rank packs (ascending pair index) its cell, a local id. Nil
	// on one rank.
	rt      *coupler.Router
	srcCell []int32

	// Ghost ids: per owned column in block order its nearest cell, and per
	// CSR entry of the owned rows in ascending p its overlap cell (nil
	// unless RemapCons). Decomposed they are points of the destination
	// vectors, the cells this rank's ocean block reads in ascending global
	// id; on one rank they are global cell ids.
	colRef  []int32
	consRef []int32

	// The owned rows of the conservative weights (nil unless RemapCons):
	// owned column k in block order has entries [consPtr[k], consPtr[k+1])
	// of consRef and consW. On one rank consRef, consW and consPtr are the
	// regridder's ConsCol, ConsW and ConsPtr.
	consW   []float64
	consPtr []int32

	// Per atmosphere cell this rank holds, by local id: its nearest wet
	// ocean column (AtmToOcn, −1 where none is reachable) and its overlap
	// area Ã_c (AtmOverlapArea, the regridder's own on one rank). unmapped
	// counts the regridder's Unmapped cells, for the audit.
	atmOcn   []int32
	overlap  []float64
	unmapped int

	// The rearranged field sets (nil on one rank): ice forcing always, the
	// conservative flux parts under RemapCons, the nearest-neighbour inputs
	// under RemapNN.
	iceSrc, iceDst   *coupler.AttrVect
	consSrc, consDst *coupler.AttrVect
	nnSrc, nnDst     *coupler.AttrVect

	// One rank: the surface air of every atmosphere cell (qair under
	// RemapNN only), the ghost values the atmosphere holds no array for.
	tair, qair []float64
}

// readCells returns, per ocean rank, the distinct atmosphere cells its owned
// block reads, ascending: each owned column's nearest cell and, under
// RemapCons, the overlap cells of its row. Columns of land-eliminated
// blocks belong to no rank and are read by none.
func (e *ESM) readCells(rg *Regridder, n int) [][]int32 {
	cells := make([][]int32, n)
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

// initDistribute builds the coupling plan once at assembly from the
// regridder rg, which it does not keep. On one rank the ocean block is the
// whole grid, so the ghost ids and rows are the regridder's own maps.
// Decomposed, both GSMaps are derived from rank-independent data, so every
// rank computes identical maps with no communication; the atmosphere cells
// this rank packs from are kept as patch-local ids.
func (e *ESM) initDistribute(rg *Regridder) error {
	ds := &distState{unmapped: len(rg.Unmapped)}
	e.dst = ds
	d := e.Atm.Decomp()
	if d == nil {
		nc := e.Atm.Mesh.NCells()
		ds.colRef, ds.atmOcn = make([]int32, len(rg.OcnToAtm)), make([]int32, nc)
		for gi, ac := range rg.OcnToAtm {
			ds.colRef[gi] = int32(ac)
		}
		for c, gi := range rg.AtmToOcn {
			ds.atmOcn[c] = int32(gi)
		}
		ds.overlap = rg.AtmOverlapArea
		ds.tair = make([]float64, nc)
		if e.remap == RemapCons {
			ds.consRef, ds.consW, ds.consPtr = rg.ConsCol, rg.ConsW, rg.ConsPtr
		} else {
			ds.qair = make([]float64, nc)
		}
		return nil
	}
	c := e.Comm
	n, me := c.Size(), c.Rank()

	// Pair k in [off[q], off[q+1]) is (ocean rank q, atmosphere cell
	// pairCell[k]).
	cells := e.readCells(rg, n)
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
	if ds.rt, err = coupler.BuildRouter(c, srcMap, dstMap); err != nil {
		return fmt.Errorf("core: coupling router: %w", err)
	}
	ds.srcCell = make([]int32, 0, ds.rt.NSrc)
	for _, k := range srcMap.LocalIndices(me) {
		ds.srcCell = append(ds.srcCell, int32(d.LocalCell(int(pairCell[k]))))
	}

	global := e.Atm.Mesh.GlobalCell
	ds.atmOcn, ds.overlap = make([]int32, len(global)), make([]float64, len(global))
	for lc, g := range global {
		ds.atmOcn[lc], ds.overlap[lc] = int32(rg.AtmToOcn[g]), rg.AtmOverlapArea[g]
	}

	mine := cells[me]
	ghost := func(cell int32) int32 {
		i, _ := slices.BinarySearch(mine, cell)
		return int32(i)
	}
	b := e.Ocn.B
	if e.remap == RemapCons {
		ds.consPtr = []int32{0}
	}
	for lj := 0; lj < b.NJ; lj++ {
		for li := 0; li < b.NI; li++ {
			gi := b.GIdx(li, lj)
			ds.colRef = append(ds.colRef, ghost(int32(rg.OcnToAtm[gi])))
			if e.remap == RemapCons {
				lo, hi := rg.ConsPtr[gi], rg.ConsPtr[gi+1]
				for _, cell := range rg.ConsCol[lo:hi] {
					ds.consRef = append(ds.consRef, ghost(cell))
				}
				ds.consW = append(ds.consW, rg.ConsW[lo:hi]...)
				ds.consPtr = append(ds.consPtr, int32(len(ds.consRef)))
			}
		}
	}
	// Held for the run: shed the spare capacity append growth left.
	ds.colRef, ds.consRef = slices.Clone(ds.colRef), slices.Clone(ds.consRef)
	ds.consW, ds.consPtr = slices.Clone(ds.consW), slices.Clone(ds.consPtr)

	if ds.iceSrc, ds.iceDst, err = ds.vectors(iceFields); err != nil {
		return err
	}
	if e.remap == RemapCons {
		ds.consSrc, ds.consDst, err = ds.vectors(consFields)
	} else {
		ds.nnSrc, ds.nnDst, err = ds.vectors(nnFields)
	}
	return err
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

// nnGhosts returns the nearest-neighbour inputs by ghost id: 10 m wind,
// surface air, held radiation and precipitation.
func (e *ESM) nnGhosts() (u, v, tair, qair, sw, lw, precip []float64) {
	ds := e.dst
	a := e.Atm
	a.Wind10mInto(e.u10, e.v10)
	if ds.rt == nil {
		for c := range ds.tair {
			ds.tair[c], ds.qair[c] = a.SurfaceAir(c)
		}
		return e.u10, e.v10, ds.tair, ds.qair, a.GSW, a.GLW, a.Precip
	}
	src, dst := ds.nnSrc, ds.nnDst
	pu, pv := src.MustField("u10"), src.MustField("v10")
	pt, pq := src.MustField("tair"), src.MustField("qair")
	psw, plw := src.MustField("gsw"), src.MustField("glw")
	ppr := src.MustField("precip")
	for i, ac := range ds.srcCell {
		pu[i], pv[i] = e.u10[ac], e.v10[ac]
		pt[i], pq[i] = a.SurfaceAir(int(ac))
		psw[i], plw[i] = a.GSW[ac], a.GLW[ac]
		ppr[i] = a.Precip[ac]
	}
	e.rearrange(src, dst, "nn")
	return dst.MustField("u10"), dst.MustField("v10"), dst.MustField("tair"), dst.MustField("qair"),
		dst.MustField("gsw"), dst.MustField("glw"), dst.MustField("precip")
}

// consGhosts returns the conservative flux parts by ghost id.
func (e *ESM) consGhosts() (taux, tauy, qnet, emp []float64) {
	ds := e.dst
	f := e.af
	if ds.rt == nil {
		return f.taux, f.tauy, f.qnet, f.emp
	}
	src, dst := ds.consSrc, ds.consDst
	ptx, pty := src.MustField("taux"), src.MustField("tauy")
	pqn, pem := src.MustField("qnet"), src.MustField("emp")
	for i, ac := range ds.srcCell {
		ptx[i], pty[i] = f.taux[ac], f.tauy[ac]
		pqn[i], pem[i] = f.qnet[ac], f.emp[ac]
	}
	e.rearrange(src, dst, "cons")
	return dst.MustField("taux"), dst.MustField("tauy"), dst.MustField("qnet"), dst.MustField("emp")
}

// iceGhosts returns the ice forcing by ghost id: surface air temperature
// and 10 m wind.
func (e *ESM) iceGhosts() (tair, u, v []float64) {
	ds := e.dst
	a := e.Atm
	a.Wind10mInto(e.u10, e.v10)
	if ds.rt == nil {
		for c := range ds.tair {
			ds.tair[c], _ = a.SurfaceAir(c)
		}
		return ds.tair, e.u10, e.v10
	}
	src, dst := ds.iceSrc, ds.iceDst
	pt := src.MustField("tair")
	pu, pv := src.MustField("u10"), src.MustField("v10")
	for i, ac := range ds.srcCell {
		pt[i], _ = a.SurfaceAir(int(ac))
		pu[i], pv[i] = e.u10[ac], e.v10[ac]
	}
	e.rearrange(src, dst, "ice")
	return dst.MustField("tair"), dst.MustField("u10"), dst.MustField("v10")
}

// importNearest computes the air–sea fluxes on the ocean grid: turbulent
// fluxes use the atmosphere's lowest-level state at the nearest cell
// together with the ocean's *own* SST, so coastal columns are never
// contaminated by land skin temperatures. Spot-accurate, but the
// area-integrated flux differs from what the atmosphere exports — the leak
// the budget ledger measures and RemapCons closes.
func (e *ESM) importNearest() {
	u, v, tair, qair, sw, lw, precip := e.nnGhosts()
	o := e.Ocn
	b := o.B
	for lj := 0; lj < b.NJ; lj++ {
		for li := 0; li < b.NI; li++ {
			if !o.Wet(li, lj) {
				continue
			}
			p := e.dst.colRef[lj*b.NI+li] // colRef is in block order
			e.nearestFluxes(b.LIdx(li, lj), u[p], v[p], tair[p], qair[p], sw[p], lw[p], precip[p])
		}
	}
}

// importConservative delivers the per-atmosphere-cell flux parts to each
// owned wet ocean column through the normalized overlap weights: each row
// sums consRow over its entries' ghost ids, so the area-integrated flux the
// ocean imports equals what the atmosphere exported to round-off. The
// ice→ocean freeze heat is a local same-grid term added after the remap.
func (e *ESM) importConservative() {
	taux, tauy, qnet, emp := e.consGhosts()
	ds := e.dst
	o := e.Ocn
	b := o.B
	h0 := firstLayerDepth(o)
	for lj := 0; lj < b.NJ; lj++ {
		for li := 0; li < b.NI; li++ {
			if !o.Wet(li, lj) {
				continue
			}
			idx := b.LIdx(li, lj)
			k := lj*b.NI + li // the owned rows are in block order
			lo, hi := ds.consPtr[k], ds.consPtr[k+1]
			w, ref := ds.consW[lo:hi], ds.consRef[lo:hi]
			o.TauX[idx] = consRow(w, ref, taux)
			o.TauY[idx] = consRow(w, ref, tauy)
			o.QHeat[idx] = consRow(w, ref, qnet) + e.Ice.FreezeHeat[idx]
			o.FWFlux[idx] = ocean.SRef * consRow(w, ref, emp) / (ocean.Rho0 * h0)
		}
	}
}

// iceForcing sets the ice model's atmosphere forcing (air temperature and
// 10 m wind at each column's nearest atmosphere cell) and its SST.
func (e *ESM) iceForcing() {
	tair, u, v := e.iceGhosts()
	ice := e.Ice
	b := ice.B
	for lj := 0; lj < b.NJ; lj++ {
		for li := 0; li < b.NI; li++ {
			idx := b.LIdx(li, lj)
			p := e.dst.colRef[lj*b.NI+li]
			ice.TAir[idx] = tair[p]
			ice.WindU[idx] = u[p]
			ice.WindV[idx] = v[p]
			ice.SST[idx] = e.Ocn.T[e.ocnIdx2(li, lj)] + 273.15
		}
	}
}
