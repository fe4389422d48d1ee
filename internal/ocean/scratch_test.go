package ocean

import (
	"fmt"
	"math"
	"reflect"
	"testing"

	"repro/internal/grid"
	"repro/internal/par"
	"repro/internal/pp"
)

// Every scratch entry a step reads must be written earlier in the same step,
// and no level may be written back before its last reader has read it.
// Two identical forced oceans step side by side: the first by
// stepByColumns, which reads every level from a frozen copy, the second by
// Step with its planes filled with NaN before each step. A stale plane read
// (the planes are borrowed by three phases in turn) or a level written back
// early shows as a difference; the prognostic state must stay bit-identical,
// halos included.
func TestStepScratchWrittenBeforeRead(t *testing.T) {
	g, err := grid.NewTripolar(24, 12, 4)
	if err != nil {
		t.Fatal(err)
	}
	const steps = 30
	for _, layout := range [][2]int{{1, 1}, {2, 2}} {
		px, py := layout[0], layout[1]
		t.Run(fmt.Sprintf("%dx%d", px, py), func(t *testing.T) {
			par.Run(px*py, func(c *par.Comm) {
				b, err := grid.NewTripolarDecompLayout(g, c, px, py, 1)
				if err != nil {
					t.Error(err)
					return
				}
				var oc [2]*Ocean
				for i := range oc {
					o, err := New(g, b, DefaultConfig(), pp.Serial{})
					if err != nil {
						t.Error(err)
						return
					}
					for lj := 0; lj < b.NJ; lj++ {
						for li := 0; li < b.NI; li++ {
							gi := float64(b.GIdx(li, lj))
							idx := o.idx2(li, lj)
							o.TauX[idx] = 0.08 * math.Sin(gi)
							o.TauY[idx] = 0.03 * math.Cos(0.7*gi)
							o.QHeat[idx] = 150 * math.Sin(0.3*gi)
							o.FWFlux[idx] = 1e-7 * math.Cos(gi)
						}
					}
					oc[i] = o
				}
				ref, poisoned := oc[0], oc[1]
				nan := math.NaN()
				// A rank that finds a difference keeps stepping: its peers
				// still need it for every halo exchange.
				failed := false
				for step := 0; step < steps; step++ {
					stepByColumns(ref)
					s := poisoned.scrEnsure()
					for _, f := range [][]float64{s.pr, s.ubar, s.vbar} {
						for i := range f {
							f[i] = nan
						}
					}
					poisoned.Step()
					if failed {
						continue
					}
					for _, f := range []struct {
						name      string
						want, got []float64
					}{
						{"U", ref.U, poisoned.U}, {"V", ref.V, poisoned.V},
						{"T", ref.T, poisoned.T}, {"S", ref.S, poisoned.S},
						{"Eta", ref.Eta, poisoned.Eta},
					} {
						for i := range f.want {
							if math.Float64bits(f.got[i]) != math.Float64bits(f.want[i]) {
								t.Errorf("rank %d step %d: %s[%d] = %v from Step on poisoned planes, %v from the column oracle",
									c.Rank(), step, f.name, i, f.got[i], f.want[i])
								failed = true
								break
							}
						}
					}
				}
			})
		})
	}
}

// stepByColumns is Step without its in-place level pipelines, the oracle of
// TestStepScratchWrittenBeforeRead: momentum reads frozen copies of U and V
// and writes each face straight into the state, and the tracers advance
// through advectDiffuse's column walk into fresh arrays. The face and cell
// arithmetic is the kernels' own; only the order of reads and write-backs
// differs. It covers the default configuration (FP64, no Ri mixing).
func stepByColumns(o *Ocean) {
	dt := o.Cfg.DtBaroclinic
	s := o.scrEnsure()
	n2 := o.LNI * o.LNJ
	o.B.ExchangeFields([]grid.HaloField{
		{Data: o.T, NLev: o.NL}, {Data: o.S, NLev: o.NL},
		{Data: o.U, NLev: o.NL, Vec: true}, {Data: o.V, NLev: o.NL, Vec: true},
		{Data: o.Eta, NLev: 1}, {Data: o.TauX, NLev: 1, Vec: true}, {Data: o.TauY, NLev: 1, Vec: true},
	})
	a := *s.mom
	a.dt = dt
	a.bind(append([]float64(nil), o.U...), append([]float64(nil), o.V...),
		o.T, o.S, o.Eta, o.TauX, o.TauY, make([]float64, n2), nil, nil)
	for k := 0; k < a.g.kTop; k++ {
		a.addPressure(k)
		a.pu, a.pv = o.U[k*n2:(k+1)*n2], o.V[k*n2:(k+1)*n2]
		for lj := 0; lj < o.B.NJ; lj++ {
			jg := o.B.J0 + lj
			for li := 0; li < o.B.NI; li++ {
				c := o.idx2(li, lj)
				if kU := min(o.kmt[c], o.kmt[c+1]); kU > k {
					a.uFace(c, k, kU, a.cor[jg], a.dx[jg], a.rhoDx[jg])
				}
				if kV := min(o.kmt[c], o.kmt[c+o.LNI]); jg != o.G.NY-1 && kV > k {
					a.vFace(c, k, kV, a.dx[jg], a.corMid[jg])
				}
			}
		}
	}
	o.barotropicCycle(dt)
	o.B.ExchangeFields([]grid.HaloField{
		{Data: o.T, NLev: o.NL}, {Data: o.S, NLev: o.NL},
		{Data: o.U, NLev: o.NL, Vec: true}, {Data: o.V, NLev: o.NL, Vec: true},
	})
	copy(o.T, o.advectDiffuse(o.T, dt, o.QHeat, o.surfTDen()))
	copy(o.S, o.advectDiffuse(o.S, dt, o.FWFlux, 1))
	o.steps++
}

// The stepping scratch is three surface-sized float64 arrays and no
// level-sized one: the kernels advance U, V, T and S in their own arrays, a
// level at a time. A kernel that needs another work array must raise this
// count on purpose: each level-sized array is NL·LNI·LNJ·8 bytes of live
// heap per ocean. The state arrays themselves must survive a step, so a
// slice bound to them before it (the sea ice's SST) still reads the state.
func TestStepScratchFootprint(t *testing.T) {
	runSerial(t, 24, 12, 4, DefaultConfig(), func(o *Ocean) {
		state := func() [4]*float64 { return [4]*float64{&o.U[0], &o.V[0], &o.T[0], &o.S[0]} }
		before := state()
		o.Step()
		if after := state(); after != before {
			t.Errorf("Step replaced a state array: &U[0], &V[0], &T[0], &S[0] were %v, now %v", before, after)
		}
		n2 := o.LNI * o.LNJ
		n3 := o.NL * n2
		var level, surface int
		s := reflect.ValueOf(o.scr).Elem()
		for i := 0; i < s.NumField(); i++ {
			f := s.Field(i)
			if f.Kind() != reflect.Slice || f.Type().Elem().Kind() != reflect.Float64 {
				continue
			}
			switch f.Len() {
			case n3:
				level++
			case n2:
				surface++
			default:
				t.Errorf("scratch field %s has %d values, neither level- (%d) nor surface-sized (%d)",
					s.Type().Field(i).Name, f.Len(), n3, n2)
			}
		}
		if level != 0 || surface != 3 {
			t.Errorf("scratch holds %d level-sized and %d surface-sized arrays, want 0 and 3", level, surface)
		}
	})
}
