package pp

import (
	"math"
	"unsafe"
)

// Exp is the kernel layer's single-source exponential. The float64
// instantiation is expInto64 on one element, a table-driven pure-Go routine
// that returns the same bits on every host; the float32 instantiation takes
// FastExpf, the vectorizable polynomial path that makes the mixed kernels
// worth running — transcendental calls, not arithmetic width, are where
// scalar float32 actually buys throughput.
//
// The size test is a compile-time constant per instantiation (float32 and
// float64 stencil to different shapes), so the untaken branch folds away.
func Exp[T Float](x T) T {
	if unsafe.Sizeof(x) == 4 {
		return T(FastExpf(float32(x)))
	}
	v := [1]float64{float64(x)}
	expInto64(v[:], v[:])
	return T(v[0])
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
		expInto64(d, any(src).([]float64))
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

// expInto64 is the float64 exponential, dst[i] = e^src[i] to within 0.51 ulp
// (dst is at least as long as src and may alias it). With
// k = round(x·128/ln 2), e^x = 2^(k>>7) · 2^((k&127)/128) · e^r,
// r = x − k·ln2/128. The reduction uses a two-part ln2/128 whose high part
// has 33 significant bits, so k·hi is exact for every |k| < 2¹⁷ and r carries
// no more than its own rounding; 2^(j/128) comes from exp2Table as (value,
// relative tail); e^r − 1 is the degree-5 Taylor polynomial (|r| ≤ ln2/256,
// truncation < 2⁻⁶⁰); the power of two goes straight into the exponent bits.
// Every product that feeds a sum is rounded explicitly, so a compiler that
// fuses multiply-adds cannot change the result: the bits are the same on
// every host. Arguments the exponent trick cannot scale (|x| ≥ 700, where the
// result nears overflow or gradual underflow) and NaN go to math.Exp.
//
// The body lives in the loop, not in a per-element function the compiler
// will not inline: the call costs a fifth of the routine.
func expInto64(dst, src []float64) {
	const (
		invL  = 0x1.71547652b82fep+07 // 128/ln 2
		lHi   = 0x1.62e42feep-08      // ln2/128, top 33 bits
		lLo   = 0x1.a39ef35793c76p-40 // ln2/128 − lHi
		shift = 0x1.8p+52             // adding it rounds to the nearest integer, left in the low mantissa bits
		c2    = 1.0 / 2
		c3    = 1.0 / 6
		c4    = 1.0 / 24
		c5    = 1.0 / 120
	)
	dst = dst[:len(src)]
	for i, x := range src {
		if !(x > -700 && x < 700) {
			dst[i] = math.Exp(x)
			continue
		}
		t := float64(x*invL) + shift
		k := int(int32(math.Float64bits(t)))
		kf := t - shift
		r := (x - float64(kf*lHi)) - float64(kf*lLo)
		q := c4 + float64(r*c5)
		q = c3 + float64(r*q)
		q = c2 + float64(r*q)
		p := r + float64(float64(r*r)*q)
		e := &exp2Table[k&127]
		y := e[0] + float64(e[0]*(e[1]+p))
		dst[i] = math.Float64frombits(math.Float64bits(y) + uint64(k>>7)<<52)
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
