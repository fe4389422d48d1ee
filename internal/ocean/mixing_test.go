package ocean

import (
	"math"
	"testing"
)

func TestPP81DiffusivityShape(t *testing.T) {
	mc := DefaultMixing()
	// Fully stable: background only.
	if kv := mc.InterfaceDiffusivity(math.Inf(1)); kv != mc.Background {
		t.Errorf("stable kv = %v", kv)
	}
	// Convective: maximum.
	if kv := mc.InterfaceDiffusivity(-0.5); kv != mc.KV0+mc.Background {
		t.Errorf("convective kv = %v", kv)
	}
	// Monotone decreasing in Ri.
	prev := math.Inf(1)
	for _, ri := range []float64{0, 0.1, 0.25, 1, 5, 100} {
		kv := mc.InterfaceDiffusivity(ri)
		if kv > prev {
			t.Fatalf("kv not monotone at Ri=%v", ri)
		}
		if kv < mc.Background {
			t.Fatalf("kv below background at Ri=%v", ri)
		}
		prev = kv
	}
	// PP81 magnitude: at Ri=0 the full KV0 is active.
	if kv := mc.InterfaceDiffusivity(0); math.Abs(kv-(mc.KV0+mc.Background)) > 1e-12 {
		t.Errorf("Ri=0 kv = %v", kv)
	}
}

func TestRichardsonNumberPhysics(t *testing.T) {
	runSerial(t, 48, 24, 8, DefaultConfig(), func(o *Ocean) {
		// Find a deep wet column.
		var c, li, lj int
		found := false
		for lj = 0; lj < o.B.NJ && !found; lj++ {
			for li = 0; li < o.B.NI; li++ {
				c = o.idx2(li, lj)
				if o.kmt[c] >= 5 {
					found = true
					break
				}
			}
		}
		if !found {
			t.Skip("no deep column")
		}
		n2 := o.LNI * o.LNJ
		// Initial stratified resting state: stable, no shear -> Ri = +Inf.
		if ri := o.RichardsonNumber(c, 1); !math.IsInf(ri, 1) {
			t.Errorf("resting Ri = %v, want +Inf", ri)
		}
		// Add strong shear: Ri becomes small and positive.
		o.U[0*n2+c] = 1.0
		o.U[1*n2+c] = -1.0
		ri := o.RichardsonNumber(c, 1)
		if math.IsInf(ri, 1) || ri < 0 {
			t.Errorf("sheared Ri = %v", ri)
		}
		// Invert the stratification: Ri negative (convective).
		o.T[0*n2+c], o.T[1*n2+c] = o.T[1*n2+c]-5, o.T[0*n2+c]+5
		if ri := o.RichardsonNumber(c, 1); ri >= 0 {
			t.Errorf("inverted-column Ri = %v, want negative", ri)
		}
	})
}

func TestRiMixingConservesAndMixes(t *testing.T) {
	runSerial(t, 48, 24, 8, DefaultConfig(), func(o *Ocean) {
		n2 := o.LNI * o.LNJ
		// Shear everywhere to activate mixing.
		for lj := 0; lj < o.B.NJ; lj++ {
			for li := 0; li < o.B.NI; li++ {
				c := o.idx2(li, lj)
				if o.kmt[c] >= 2 {
					o.U[c] = 0.8
					o.U[n2+c] = -0.8
				}
			}
		}
		t0 := tracerContent(o, o.T)
		s0 := tracerContent(o, o.S)
		// Measure a strongly stratified column's surface-bottom contrast.
		var c int
		for lj := 0; lj < o.B.NJ; lj++ {
			for li := 0; li < o.B.NI; li++ {
				cc := o.idx2(li, lj)
				if o.kmt[cc] >= 6 {
					c = cc
				}
			}
		}
		before := o.T[c] - o.T[n2+c]
		cols := o.ApplyRiMixing(DefaultMixing(), o.Cfg.DtBaroclinic)
		if cols == 0 {
			t.Fatal("no columns mixed")
		}
		after := o.T[c] - o.T[n2+c]
		if math.Abs(after) > math.Abs(before) {
			t.Errorf("mixing sharpened the gradient: %v -> %v", before, after)
		}
		// Exact conservation.
		if rel := math.Abs(tracerContent(o, o.T)-t0) / math.Abs(t0); rel > 1e-13 {
			t.Errorf("heat content drift %.2e", rel)
		}
		if rel := math.Abs(tracerContent(o, o.S)-s0) / math.Abs(s0); rel > 1e-13 {
			t.Errorf("salt content drift %.2e", rel)
		}
	})
}

func TestDiffusivityProfileShape(t *testing.T) {
	runSerial(t, 48, 24, 8, DefaultConfig(), func(o *Ocean) {
		for lj := 0; lj < o.B.NJ; lj++ {
			for li := 0; li < o.B.NI; li++ {
				// Interface k sits between levels k-1 and k of a wet column.
				c := o.idx2(li, lj)
				for k := 1; k < o.kmt[c]; k++ {
					kv := DefaultMixing().InterfaceDiffusivity(o.RichardsonNumber(c, k))
					if kv <= 0 || math.IsNaN(kv) {
						t.Fatalf("bad diffusivity %v at column %d interface %d", kv, c, k)
					}
				}
			}
		}
	})
}

func TestRiMixingIntegratedInStep(t *testing.T) {
	cfg := DefaultConfig()
	cfg.RiMixing = true
	runSerial(t, 48, 24, 8, cfg, func(o *Ocean) {
		t0 := tracerContent(o, o.T)
		for lj := 0; lj < o.B.NJ; lj++ {
			for li := 0; li < o.B.NI; li++ {
				o.TauX[o.idx2(li, lj)] = 0.15
			}
		}
		for s := 0; s < 10; s++ {
			o.Step()
		}
		if v := o.MaxSurfaceSpeed(); math.IsNaN(v) || v > 10 {
			t.Fatalf("unstable with Ri mixing: %v", v)
		}
		// Transport + mixing still conserve exactly (no surface forcing on T).
		if rel := math.Abs(tracerContent(o, o.T)-t0) / math.Abs(t0); rel > 1e-12 {
			t.Errorf("heat drift %.2e with Ri mixing", rel)
		}
	})
}
