package core

import (
	"fmt"
	"time"

	"repro/internal/coupler"
)

// The adapters below wrap each model in the CPL7 component contract
// (coupler.Component): init/run/finalize plus import/export of named
// attribute vectors. The driver validates the exchange graph through them
// at startup; field names follow the convention that a name is exported by
// exactly one component.

type atmComp struct{ e *ESM }

func (a *atmComp) Name() string { return "atm" }

// atmExchangeFields is the atmosphere's export list: the split air–sea flux
// parts (the budget ledger's per-interface terms) replace the former
// aggregate qheat_parts/fwflux_parts placeholders.
var atmExchangeFields = []string{
	"taux", "tauy", "qsw", "qlw", "qsens", "qlat", "fwflux",
	"tair", "uwind", "vwind",
}

func (a *atmComp) Init() (exports, imports []string, err error) {
	return atmExchangeFields, []string{"sst", "ifrac"}, nil
}
func (a *atmComp) Run(dt time.Duration) error { a.e.atmosphereStep(); return nil }
func (a *atmComp) Export() (*coupler.AttrVect, error) {
	m := a.e.Atm
	nc := m.Mesh.NCells()
	av, err := coupler.NewAttrVect(atmExchangeFields, nc)
	if err != nil {
		return nil, err
	}
	if a.e.af == nil {
		a.e.af = newAtmFluxes(nc)
	}
	a.e.computeAtmFluxes()
	copy(av.MustField("taux"), a.e.af.taux)
	copy(av.MustField("tauy"), a.e.af.tauy)
	copy(av.MustField("qsw"), a.e.af.sw)
	copy(av.MustField("qlw"), a.e.af.lw)
	copy(av.MustField("qsens"), a.e.af.sens)
	copy(av.MustField("qlat"), a.e.af.lat)
	copy(av.MustField("fwflux"), a.e.af.emp)
	tair := av.MustField("tair")
	for c := range tair {
		tair[c], _ = m.SurfaceAir(c)
	}
	u, v := m.Wind10m()
	copy(av.MustField("uwind"), u)
	copy(av.MustField("vwind"), v)
	return av, nil
}
func (a *atmComp) Import(av *coupler.AttrVect) error {
	m := a.e.Atm
	if av.LSize != m.Mesh.NCells() {
		return fmt.Errorf("core: atm import size %d, want %d", av.LSize, m.Mesh.NCells())
	}
	if sst, err := av.Field("sst"); err == nil {
		copy(m.SST, sst)
	}
	if ifr, err := av.Field("ifrac"); err == nil {
		copy(m.IceFrac, ifr)
	}
	return nil
}
func (a *atmComp) Finalize() error { return nil }

type ocnComp struct{ e *ESM }

func (o *ocnComp) Name() string { return "ocn" }
func (o *ocnComp) Init() (exports, imports []string, err error) {
	return []string{"sst"},
		[]string{"taux", "tauy", "qsw", "qlw", "qsens", "qlat", "fwflux", "freezeheat"}, nil
}
func (o *ocnComp) Run(dt time.Duration) error { o.e.oceanImport(); o.e.oceanSubsteps(); return nil }
func (o *ocnComp) Export() (*coupler.AttrVect, error) {
	oc := o.e.Ocn
	b := oc.B
	av, err := coupler.NewAttrVect([]string{"sst"}, b.NJ*b.NI)
	if err != nil {
		return nil, err
	}
	copy(av.MustField("sst"), oc.SurfaceTemperature())
	return av, nil
}
func (o *ocnComp) Import(av *coupler.AttrVect) error {
	oc := o.e.Ocn
	b := oc.B
	if av.LSize != b.NJ*b.NI {
		return fmt.Errorf("core: ocn import size %d, want %d", av.LSize, b.NJ*b.NI)
	}
	set := func(name string, dst []float64) {
		if f, err := av.Field(name); err == nil {
			for lj := 0; lj < b.NJ; lj++ {
				for li := 0; li < b.NI; li++ {
					dst[o.e.ocnIdx2(li, lj)] = f[lj*b.NI+li]
				}
			}
		}
	}
	set("taux", oc.TauX)
	set("tauy", oc.TauY)
	// Reassemble net heat from the split parts plus the same-grid ice term.
	parts := make([][]float64, 0, 5)
	for _, name := range []string{"qsw", "qlw", "qsens", "qlat", "freezeheat"} {
		if f, err := av.Field(name); err == nil {
			parts = append(parts, f)
		}
	}
	if len(parts) > 0 {
		for lj := 0; lj < b.NJ; lj++ {
			for li := 0; li < b.NI; li++ {
				var q float64
				for _, f := range parts {
					q += f[lj*b.NI+li]
				}
				oc.QHeat[o.e.ocnIdx2(li, lj)] = q
			}
		}
	}
	set("fwflux", oc.FWFlux)
	return nil
}
func (o *ocnComp) Finalize() error { return nil }

type iceComp struct{ e *ESM }

func (i *iceComp) Name() string { return "ice" }
func (i *iceComp) Init() (exports, imports []string, err error) {
	return []string{"ifrac", "freezeheat"},
		[]string{"tair", "uwind", "vwind", "sst"}, nil
}
func (i *iceComp) Run(dt time.Duration) error { i.e.iceStep(); return nil }
func (i *iceComp) Export() (*coupler.AttrVect, error) {
	ic := i.e.Ice
	b := ic.B
	av, err := coupler.NewAttrVect([]string{"ifrac", "freezeheat"}, b.NJ*b.NI)
	if err != nil {
		return nil, err
	}
	fr := av.MustField("ifrac")
	fh := av.MustField("freezeheat")
	for lj := 0; lj < b.NJ; lj++ {
		for li := 0; li < b.NI; li++ {
			idx := b.LIdx(li, lj)
			fr[lj*b.NI+li] = ic.Conc[idx]
			fh[lj*b.NI+li] = ic.FreezeHeat[idx]
		}
	}
	return av, nil
}
func (i *iceComp) Import(av *coupler.AttrVect) error {
	ic := i.e.Ice
	b := ic.B
	if av.LSize != b.NJ*b.NI {
		return fmt.Errorf("core: ice import size %d, want %d", av.LSize, b.NJ*b.NI)
	}
	set := func(name string, dst []float64) {
		if f, err := av.Field(name); err == nil {
			for lj := 0; lj < b.NJ; lj++ {
				for li := 0; li < b.NI; li++ {
					dst[b.LIdx(li, lj)] = f[lj*b.NI+li]
				}
			}
		}
	}
	set("tair", ic.TAir)
	set("uwind", ic.WindU)
	set("vwind", ic.WindV)
	set("sst", ic.SST)
	return nil
}
func (i *iceComp) Finalize() error { return nil }
