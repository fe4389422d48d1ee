package ocean

import "testing"

// An ocean at rest over flat isopycnals stays at rest: with no forcing and
// no vertical diffusion, a horizontally uniform, stably stratified T and S
// have no horizontal pressure gradient at any level, so after 400 steps of
// the 48×24×10 benchmark ocean U, V, η and Ubar are still exactly zero and
// every level's T and S are still exactly uniform over its wet cells.
func TestOceanRestStaysAtRest(t *testing.T) {
	cfg := DefaultConfig()
	cfg.KV = 0
	runSerial(t, 48, 24, 10, cfg, func(o *Ocean) {
		for k := 0; k < o.NL; k++ {
			tk, sk := 20-1.5*float64(k), 34.5+0.05*float64(k) // warm and fresh on top
			for i := k * o.LNI * o.LNJ; i < (k+1)*o.LNI*o.LNJ; i++ {
				if o.maskT[i-k*o.LNI*o.LNJ] {
					o.T[i], o.S[i] = tk, sk
				}
			}
		}
		for s := 0; s < 400; s++ {
			o.Step()
		}
		for _, f := range []struct {
			name string
			v    []float64
		}{{"U", o.U}, {"V", o.V}, {"Eta", o.Eta}, {"Ubar", o.Ubar}} {
			for i, x := range f.v {
				if x != 0 {
					t.Fatalf("%s[%d] = %g after 400 steps at rest, want 0", f.name, i, x)
				}
			}
		}
		for k := 0; k < o.NL; k++ {
			for _, f := range []struct {
				name string
				v    []float64
			}{{"T", o.T}, {"S", o.S}} {
				lo, hi, wet := 0.0, 0.0, false
				for lj := 0; lj < o.B.NJ; lj++ {
					for li := 0; li < o.B.NI; li++ {
						c := o.idx2(li, lj)
						if k >= o.kmt[c] {
							continue
						}
						x := f.v[o.idx3(k, li, lj)]
						if !wet {
							lo, hi, wet = x, x, true
						}
						lo, hi = min(lo, x), max(hi, x)
					}
				}
				if hi != lo {
					t.Errorf("level %d: %s spreads over [%.17g, %.17g] after 400 steps at rest, want one value", k, f.name, lo, hi)
				}
			}
		}
	})
}
