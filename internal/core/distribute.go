package core

import (
	"fmt"

	"repro/internal/coupler"
	"repro/internal/ocean"
	"repro/internal/seaice"
)

// The coupling runs both ways through ghost ids, at every rank count.
//
// atm→ocn: every owned ocean column reads its atmosphere values through
// ghost ids — colRef holds one per owned column (its nearest cell,
// OcnToAtm; dry columns too) and consRef one per CSR entry of its row (its
// overlap cell, ConsCol, beside its weight in consW). Two readers use them:
//
//   - importConservative reads the 4 per-cell flux parts through consRef
//     and sums each owned wet column's row with consRow in ascending p;
//   - the sea ice's bound Forcing reads tair, u10 and v10 at each column's
//     nearest cell through colRef.
//
// ocn→atm: every atmosphere cell this rank holds, the ring-1 halo included,
// reads its ocean column's SST and ice concentration through atmOcn, its
// ghost id (−1 for a land cell, whose surface is the land model's, and for
// a cell with no reachable wet column), so the halo's surface is valid for
// the redundant physics columns without an atmosphere exchange.
//
// Only where the ghost values come from depends on the rank count. On one
// rank nothing is decomposed and there is no router and no vector: an
// atm→ocn ghost id is the global cell id and the values are the
// atmosphere's own arrays (plus the surface air temperature, filled per
// cell from SurfaceAir); an ocn→atm ghost id is the column's ocean-local
// index and the values are Ocn.T's surface level and Ice.Conc. Decomposed,
// each direction has one coupler.Router over (reading rank, point) pairs:
// for each rank in rank order, the distinct points it reads, ascending —
// the atmosphere cells its owned ocean block reads (whose source is the
// cell's atmosphere owner), and the ocean columns its atmosphere patch
// reads (whose source is the column's ocean owner). The owner packs each
// point's value once per reading rank, a rank's destination vector holds
// one point per point it reads, and a ghost id is a place in that vector.
// The owner packs the values the one-rank path reads, so every rank count
// evaluates the same expressions on the same operands, bit for bit.
//
// One rank's plan is the regridder's own maps (initDistribute). A
// decomposed rank derives its plan from its own reads alone — the rows of
// its owned ocean block and the nearest columns of its patch — and learns
// who reads what from it in one set-up exchange (assemblePatch); no rank
// holds another's reads or any table of global size.
//
// All buffers and vectors are persistent, so the per-step fill/consume
// cycle is allocation-free in steady state (the rearranger's own guarantee
// plus the preallocated AttrVects here).

var iceFields = []string{"tair", "u10", "v10"}
var consFields = []string{"taux", "tauy", "qnet", "emp"}
var sfcFields = []string{"sst", "ice"}

type distState struct {
	// The router over the (ocean rank, atmosphere cell) pair space, and per
	// pair this rank packs (ascending pair index) its cell, a local id. Nil
	// on one rank.
	rt      *coupler.Router
	srcCell []int32

	// Ghost ids: per owned column in block order its nearest cell, and per
	// CSR entry of the owned rows in ascending p its overlap cell.
	// Decomposed they are points of the destination vectors, the cells this
	// rank's ocean block reads in ascending global id; on one rank they are
	// global cell ids.
	colRef  []int32
	consRef []int32

	// The owned rows of the conservative weights: owned column k in block
	// order has entries [consPtr[k], consPtr[k+1]) of consRef and consW. On
	// one rank consRef, consW and consPtr are the regridder's ConsCol, ConsW
	// and ConsPtr.
	consW   []float64
	consPtr []int32

	// Per atmosphere cell this rank holds, by local id: the ocn→atm ghost
	// id of its nearest wet ocean column (AtmToOcn; −1 for land and where
	// none is reachable) and its overlap area Ã_c (AtmOverlapArea: the
	// regridder's own on one rank; decomposed, 0 on the halo: the flux
	// parts and the audit read owned cells only).
	// unmapped counts the model's unmapped cells, for the audit.
	atmOcn   []int32
	overlap  []float64
	unmapped int

	// The ocn→atm router over the (atmosphere rank, ocean column) pair
	// space, per pair this rank packs (ascending pair index) its column's
	// ocean-local index, and the SST/ice vectors. Nil on one rank.
	sfcRt          *coupler.Router
	sfcCol         []int32
	sfcSrc, sfcDst *coupler.AttrVect

	// The rearranged field sets (nil on one rank): the ice forcing and the
	// conservative flux parts.
	iceSrc, iceDst   *coupler.AttrVect
	consSrc, consDst *coupler.AttrVect

	// One rank: the surface air temperature of every atmosphere cell, the
	// ghost values the atmosphere holds no array for.
	tair []float64
}

// initDistribute builds one rank's coupling plan from the regridder rg of
// both whole grids, whose AtmToOcn assembly has masked to −1 on land cells:
// the ocean block is the whole grid, so the atm→ocn ghost ids and rows are
// the regridder's own maps. It binds the ice model's Forcing to the ghost
// values. A decomposed rank builds its plan in assemblePatch.
func (e *ESM) initDistribute(rg *Regridder) error {
	ds := &distState{unmapped: len(rg.Unmapped)}
	e.dst = ds
	nc := e.Atm.Mesh.NCells()
	ds.colRef, ds.atmOcn = make([]int32, len(rg.OcnToAtm)), make([]int32, nc)
	for gi, ac := range rg.OcnToAtm {
		ds.colRef[gi] = int32(ac)
	}
	b := e.Ocn.B
	for c, gi := range rg.AtmToOcn {
		ds.atmOcn[c] = -1
		if gi >= 0 {
			ds.atmOcn[c] = int32(b.LIdx(gi%b.G.NX-b.I0, gi/b.G.NX-b.J0))
		}
	}
	ds.overlap = rg.AtmOverlapArea
	ds.tair = make([]float64, nc)
	ds.consRef, ds.consW, ds.consPtr = rg.ConsCol, rg.ConsW, rg.ConsPtr
	e.bindIceForcing()
	return nil
}

// vectors allocates the source and destination vectors of one field set
// on router rt.
func vectors(fields []string, rt *coupler.Router) (src, dst *coupler.AttrVect, err error) {
	if src, err = coupler.NewAttrVect(fields, rt.NSrc); err != nil {
		return nil, nil, err
	}
	dst, err = coupler.NewAttrVect(fields, rt.NDst)
	return src, dst, err
}

// rearrange ships one packed field set through router rt to the ranks that
// read it.
func (e *ESM) rearrange(rt *coupler.Router, src, dst *coupler.AttrVect, what string) {
	var o coupler.Observer
	if ob, ok := e.obs.(coupler.Observer); ok {
		o = ob
	}
	if err := coupler.RearrangeInto(e.Comm, rt, src, dst, coupler.ModeP2P, o); err != nil {
		panic(fmt.Sprintf("core: %s rearrange: %v", what, err))
	}
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
	e.rearrange(ds.rt, src, dst, "cons")
	return dst.MustField("taux"), dst.MustField("tauy"), dst.MustField("qnet"), dst.MustField("emp")
}

// bindIceForcing points the ice model's Forcing at the ice ghost values —
// surface air temperature and 10 m wind by ghost id through colRef — and at
// the ocean's temperature field for the SST. The ghost arrays are
// persistent, so iceForcing refreshes what the binding reads; the ocean
// steps T in place and a restart copies into it, so the SST slice stays
// the ocean's.
func (e *ESM) bindIceForcing() {
	ds := e.dst
	f := seaice.Forcing{Ref: ds.colRef, OcnT: e.Ocn.T}
	if ds.rt == nil {
		f.TAir, f.U, f.V = ds.tair, e.u10, e.v10
	} else {
		f.TAir, f.U, f.V = ds.iceDst.MustField("tair"), ds.iceDst.MustField("u10"), ds.iceDst.MustField("v10")
	}
	e.Ice.Forcing = f
}

// iceForcing refreshes the ice ghost values the ice model's Forcing reads:
// surface air temperature and 10 m wind, the atmosphere's own on one rank,
// rearranged from their owners when decomposed.
func (e *ESM) iceForcing() {
	ds := e.dst
	a := e.Atm
	a.Wind10mInto(e.u10, e.v10)
	if ds.rt == nil {
		for c := range ds.tair {
			ds.tair[c], _ = a.SurfaceAir(c)
		}
		return
	}
	src, dst := ds.iceSrc, ds.iceDst
	pt := src.MustField("tair")
	pu, pv := src.MustField("u10"), src.MustField("v10")
	for i, ac := range ds.srcCell {
		pt[i], _ = a.SurfaceAir(int(ac))
		pu[i], pv[i] = e.u10[ac], e.v10[ac]
	}
	e.rearrange(ds.rt, src, dst, "ice")
}

// surfaceGhosts returns the ocean surface by ocn→atm ghost id: the surface
// temperature (°C) and the ice concentration — the ocean's and the ice's
// own arrays on one rank, rearranged from the column owners when
// decomposed.
func (e *ESM) surfaceGhosts() (sst, ice []float64) {
	ds := e.dst
	if ds.sfcRt == nil {
		b := e.Ocn.B
		return e.Ocn.T[:b.LNI()*b.LNJ()], e.Ice.Conc
	}
	src, dst := ds.sfcSrc, ds.sfcDst
	ps, pi := src.MustField("sst"), src.MustField("ice")
	for i, idx := range ds.sfcCol {
		ps[i], pi[i] = e.Ocn.T[idx], e.Ice.Conc[idx]
	}
	e.rearrange(ds.sfcRt, src, dst, "surface")
	return dst.MustField("sst"), dst.MustField("ice")
}

// importConservative delivers the per-atmosphere-cell flux parts to each
// owned wet ocean column through the normalized overlap weights — MCT's
// conservative sparse-matrix interpolation (§5.1.1): each row sums consRow
// over its entries' ghost ids, so the area-integrated flux the ocean
// imports equals what the atmosphere exported to round-off. The
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
