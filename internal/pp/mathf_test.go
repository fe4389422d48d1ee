package pp

import (
	"math"
	"testing"
)

// The float64 instantiation of Exp must be math.Exp bit-for-bit — that is
// what lets kernel bodies call it and keep the f64 path pinned by the
// golden tests.
func TestExpFloat64BitForBit(t *testing.T) {
	for x := -50.0; x <= 50.0; x += 0.7 {
		if got, want := Exp(x), math.Exp(x); got != want {
			t.Fatalf("Exp[float64](%v) = %v, want math.Exp = %v", x, got, want)
		}
	}
}

// FastExpf must track math.Exp within a few float32 ulps across the range
// the radiation and kernel sweeps use (attenuation arguments are negative;
// moderate positive arguments ride along for generality).
func TestFastExpfAccuracy(t *testing.T) {
	worst := 0.0
	for x := -86.0; x <= 60.0; x += 0.0173 {
		got := float64(FastExpf(float32(x)))
		want := math.Exp(float64(float32(x)))
		rel := math.Abs(got-want) / want
		if rel > worst {
			worst = rel
		}
		if rel > 1e-6 {
			t.Fatalf("FastExpf(%v) = %v, want %v (rel err %.3e)", x, got, want, rel)
		}
	}
	t.Logf("worst relative error %.3e", worst)
	if worst > 5e-7 {
		t.Errorf("worst relative error %.3e exceeds the 5e-7 design envelope", worst)
	}
}

// The edge behaviour the kernels rely on: saturated attenuation underflows
// cleanly to zero, overflow saturates to +Inf, NaN propagates, and the
// float32 instantiation of the generic Exp routes through FastExpf.
func TestFastExpfEdges(t *testing.T) {
	if got := FastExpf(-200); got != 0 {
		t.Errorf("FastExpf(-200) = %v, want 0", got)
	}
	if got := FastExpf(200); !math.IsInf(float64(got), 1) {
		t.Errorf("FastExpf(200) = %v, want +Inf", got)
	}
	if got := FastExpf(float32(math.NaN())); got == got {
		t.Errorf("FastExpf(NaN) = %v, want NaN", got)
	}
	if got := FastExpf(0); got != 1 {
		t.Errorf("FastExpf(0) = %v, want 1", got)
	}
	if got, want := Exp(float32(-3.25)), FastExpf(-3.25); got != want {
		t.Errorf("Exp[float32](-3.25) = %v, want FastExpf = %v", got, want)
	}
}

// ExpInto must hand every element exactly the bits Exp returns, at both
// element types, in place or not, for empty, single, one-column and odd
// lengths — that is what lets a kernel batch its exponentials and stay
// bit-for-bit.
func TestExpIntoMatchesExp(t *testing.T) {
	for _, n := range []int{0, 1, 8, 257} {
		src64 := make([]float64, n)
		src32 := make([]float32, n)
		for i := range src64 {
			x := -90 + 100*float64(i)/float64(n) + 0.137*float64(i%7)
			src64[i], src32[i] = x, float32(x)
		}
		dst64 := make([]float64, n+1) // longer than src: the tail must be left alone
		dst32 := make([]float32, n+1)
		dst64[n], dst32[n] = -1, -1
		ExpInto(dst64, src64)
		ExpInto(dst32, src32)
		for i := range src64 {
			if got, want := dst64[i], Exp(src64[i]); math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("n=%d: ExpInto[float64][%d] = %v, want Exp = %v", n, i, got, want)
			}
			if got, want := dst32[i], Exp(src32[i]); math.Float32bits(got) != math.Float32bits(want) {
				t.Fatalf("n=%d: ExpInto[float32][%d] = %v, want Exp = %v", n, i, got, want)
			}
		}
		if dst64[n] != -1 || dst32[n] != -1 {
			t.Fatalf("n=%d: ExpInto wrote past len(src)", n)
		}
		// In place.
		ExpInto(src64, src64)
		ExpInto(src32, src32)
		for i := range src64 {
			if src64[i] != dst64[i] || src32[i] != dst32[i] {
				t.Fatalf("n=%d: in-place ExpInto differs at %d", n, i)
			}
		}
	}
	if a := testing.AllocsPerRun(10, func() {
		var buf [8]float64
		ExpInto(buf[:], buf[:])
	}); a != 0 {
		t.Errorf("ExpInto allocates %v objects per call", a)
	}
}
