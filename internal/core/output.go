package core

import (
	"math"

	"repro/internal/par"
	"repro/internal/pario"
)

// WriteSnapshot dumps the Fig 1-style diagnostic surface fields to one
// binary file readable with pario.ReadGlobal: atmosphere surface pressure,
// 10 m wind speed, precipitation, total-cloud proxy (on atmosphere cells),
// and SST, sea-surface kinetic energy, surface Rossby number, and ice
// concentration (on the global ocean grid). These are the quantities the
// paper visualizes in Figs 1 and 6.
func (e *ESM) WriteSnapshot(path string) error {
	var fields []pario.Field

	// Ocean-grid diagnostics are gathered and written by rank 0.
	o := e.Ocn
	b := o.B
	g := o.G
	n2g := g.NX * g.NY

	ro := o.SurfaceRossby()
	roLoc := b.Alloc()
	keLoc := b.Alloc()
	for lj := 0; lj < b.NJ; lj++ {
		for li := 0; li < b.NI; li++ {
			c := e.ocnIdx2(li, lj)
			roLoc[b.LIdx(li, lj)] = ro[lj*b.NI+li]
			u := 0.5 * (o.U[c] + o.U[c-1])
			v := 0.5 * (o.V[c] + o.V[c-o.LNI])
			keLoc[b.LIdx(li, lj)] = 0.5 * (u*u + v*v)
		}
	}
	roG := b.GatherGlobal(roLoc)
	keG := b.GatherGlobal(keLoc)
	sstG := b.GatherGlobal(o.T[:o.LNI*o.LNJ])
	iceLoc := b.Alloc()
	copy(iceLoc, e.Ice.Conc)
	iceG := b.GatherGlobal(iceLoc)

	// Atmosphere-cell diagnostics, assembled collectively (see
	// assembleAtmField).
	m := e.Atm
	m.Wind10mInto(e.u10, e.v10)
	speed := e.assembleAtmField(func(c int, out []float64) { out[c] = math.Hypot(e.u10[c], e.v10[c]) })
	ps := e.assembleAtmField(func(c int, out []float64) { out[c] = m.Ps[c] })
	precip := e.assembleAtmField(func(c int, out []float64) { out[c] = m.Precip[c] })
	cloud := e.assembleAtmField(func(c int, out []float64) { out[c] = m.CloudProxy(c) })

	if e.Comm.Rank() == 0 {
		whole := func(name string, data []float64) {
			fields = append(fields, pario.Field{Name: name, Global: len(data), Start: 0, Data: data})
		}
		whole("ocn.rossby", roG)
		whole("ocn.ke", keG)
		whole("ocn.sst", sstG)
		whole("ice.conc", iceG)
		if len(roG) != n2g {
			panic("core: snapshot gather size mismatch")
		}
		whole("atm.ps", ps)
		whole("atm.wind10m", speed)
		whole("atm.precip", precip)
		whole("atm.cloud", cloud)
		// Cell coordinates so a plotting tool can place the unstructured
		// atmosphere values.
		whole("atm.loncell", append([]float64(nil), m.Mesh.LonCell...))
		whole("atm.latcell", append([]float64(nil), m.Mesh.LatCell...))
	}
	return pario.WriteSingleTo(e.Comm, path, fields, e.obs)
}

// assembleAtmField builds a global atmosphere-cell field. On one rank the
// arrays already hold the global state and fill runs over all cells;
// decomposed, each rank fills only its owned cells (halo and farther cells
// are stale at multi-rank) and a sum-allreduce assembles the global field —
// the owned ranges partition the mesh, so the sum places each value exactly
// once. Collective in both cases.
func (e *ESM) assembleAtmField(fill func(c int, out []float64)) []float64 {
	out := make([]float64, e.Atm.Mesh.NCells())
	if e.dec == nil {
		for c := range out {
			fill(c, out)
		}
		return out
	}
	for _, r := range e.dec.OwnedRanges() {
		for c := r[0]; c < r[0]+r[1]; c++ {
			fill(c, out)
		}
	}
	return e.Comm.AllreduceSlice(out, par.OpSum)
}

// GlobalAtmPs assembles the global surface-pressure field. Collective: under
// atmosphere decomposition only owned cells are live locally, so diagnostics
// that scan the whole field (typhoon center finding) must go
// through this gather rather than reading Atm.Ps directly.
func (e *ESM) GlobalAtmPs() []float64 {
	m := e.Atm
	return e.assembleAtmField(func(c int, out []float64) { out[c] = m.Ps[c] })
}
