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

// Every scratch entry a step reads must be written earlier in the same step:
// the pressure buffer doubles as the tracer buffer, so a stale read would
// pick up a tracer value. Two identical forced oceans step side by side; the
// second's scratch is filled with NaN before each of its steps, and the
// prognostic state must stay bit-identical, halos included.
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
					ref.Step()
					s := poisoned.scrEnsure()
					for _, f := range [][]float64{s.w, s.u, s.v, s.ubar, s.vbar} {
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
								t.Errorf("rank %d step %d: %s[%d] = %v with poisoned scratch, %v without",
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

// The stepping scratch is three level-sized and two surface-sized float64
// arrays. A kernel that needs another work array must raise this count on
// purpose: each level-sized array is NL·LNI·LNJ·8 bytes of live heap per
// ocean.
func TestStepScratchFootprint(t *testing.T) {
	runSerial(t, 24, 12, 4, DefaultConfig(), func(o *Ocean) {
		o.Step()
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
		if level != 3 || surface != 2 {
			t.Errorf("scratch holds %d level-sized and %d surface-sized arrays, want 3 and 2", level, surface)
		}
	})
}
