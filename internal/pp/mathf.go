package pp

import (
	"math"
	"unsafe"
)

// Exp is the kernel layer's single-source exponential. The float64
// instantiation is exactly math.Exp, so float64 kernel bodies that call it
// stay bit-for-bit with the code they replaced; the float32 instantiation
// takes FastExpf, the vectorizable polynomial path that makes the mixed
// kernels worth running — transcendental calls, not arithmetic width, are
// where scalar float32 actually buys throughput.
//
// The size test is a compile-time constant per instantiation (float32 and
// float64 stencil to different shapes), so the untaken branch folds away.
func Exp[T Float](x T) T {
	if unsafe.Sizeof(x) == 4 {
		return T(FastExpf(float32(x)))
	}
	return T(math.Exp(float64(x)))
}

// ExpInto sets dst[i] = Exp(src[i]) for every element of src; dst must be at
// least as long and may be src itself. Each element gets exactly the bits
// Exp returns, but the element type is resolved once per call rather than
// once per element, which is what a generic kernel body pays for calling Exp
// in its inner loop.
func ExpInto[T Float](dst, src []T) {
	dst = dst[:len(src)]
	switch d := any(dst).(type) {
	case []float64:
		for i, x := range any(src).([]float64) {
			d[i] = math.Exp(x)
		}
	case []float32:
		for i, x := range any(src).([]float32) {
			d[i] = FastExpf(x)
		}
	default: // a named float type: no fast path to pick
		for i, x := range src {
			dst[i] = Exp(x)
		}
	}
}

// FastExpf computes e^x in float32 with a branch-light polynomial: reduce
// x = n·ln2 + r with r in [-ln2/2, ln2/2] (Cody–Waite two-part ln2, so the
// reduction stays exact for |n| up to 128), evaluate e^r by a degree-6
// Taylor polynomial (truncation ~1e-8 relative, under float32's ~6e-8
// rounding — "fast", not correctly rounded), and apply 2^n by constructing
// the scale's exponent bits directly. Inputs outside the float32-normal
// result range clamp to +Inf and 0; the subnormal fringe below e^-87
// flushes to zero. NaN propagates.
func FastExpf(x float32) float32 {
	const (
		log2e = float32(1.4426950408889634)
		// ln2 split so n*ln2hi is exact in float32 (11-bit mantissa × 8-bit n).
		ln2hi = float32(0.693359375)
		ln2lo = float32(-2.12194440e-4)
		// Taylor coefficients of e^r: 1/k!.
		c2 = float32(0.5)
		c3 = float32(1.0 / 6)
		c4 = float32(1.0 / 24)
		c5 = float32(1.0 / 120)
		c6 = float32(1.0 / 720)
	)
	if x != x { // NaN
		return x
	}
	if x > 88.7 { // e^x overflows float32
		return float32(math.Inf(1))
	}
	if x < -87 { // result subnormal or zero: flush
		return 0
	}
	// n = round-half-up(x/ln2) via truncate-and-adjust; |n| <= 128 fits int32.
	zn := x*log2e + 0.5
	n := int32(zn)
	if float32(n) > zn {
		n--
	}
	fn := float32(n)
	r := (x - fn*ln2hi) - fn*ln2lo
	p := 1 + r*(1+r*(c2+r*(c3+r*(c4+r*(c5+r*c6)))))
	return p * math.Float32frombits(uint32(n+127)<<23)
}
