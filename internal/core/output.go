package core

import (
	"math"

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
	iceG := b.GatherGlobal(e.Ice.Conc)

	// Atmosphere-cell diagnostics, assembled collectively (see
	// assembleAtmField).
	m := e.Atm
	speed := e.atmWindSpeed()
	ps := e.assembleAtmField(m.Ps)
	precip := e.assembleAtmField(m.Precip)
	cloud := e.assembleAtmField(m.TotalCloudProxy())
	lon, lat := e.assembleAtmField(m.Mesh.LonCell), e.assembleAtmField(m.Mesh.LatCell)

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
		whole("atm.loncell", lon)
		whole("atm.latcell", lat)
	}
	return pario.WriteSingleTo(e.Comm, path, fields, e.obs)
}

// assembleAtmField returns a fresh global copy of a one-value-per-cell
// atmosphere field on rank 0, nil on the other ranks. On one rank the field
// already is global; decomposed, each rank holds only its patch and the
// owned cells are gathered onto rank 0 (grid.IcosDecomp.Gather). Collective
// in both cases.
func (e *ESM) assembleAtmField(f []float64) []float64 {
	if d := e.Atm.Decomp(); d != nil {
		return d.Gather(f)
	}
	return append([]float64(nil), f...)
}

// atmWindSpeed assembles the 10 m wind speed (see assembleAtmField).
func (e *ESM) atmWindSpeed() []float64 {
	e.Atm.Wind10mInto(e.u10, e.v10)
	speed := make([]float64, len(e.u10))
	for c := range speed {
		speed[c] = math.Hypot(e.u10[c], e.v10[c])
	}
	return e.assembleAtmField(speed)
}

// GlobalAtmPs assembles the global surface-pressure field on rank 0 (nil on
// the other ranks). Collective: under atmosphere decomposition a rank holds
// only its patch, so diagnostics that scan the whole field (typhoon center
// finding) must go through this gather rather than reading Atm.Ps directly.
func (e *ESM) GlobalAtmPs() []float64 { return e.assembleAtmField(e.Atm.Ps) }
