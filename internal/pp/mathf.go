package pp

import "math"

// Exp returns e^x: ExpInto on one element.
func Exp(x float64) float64 {
	v := [1]float64{x}
	ExpInto(v[:], v[:])
	return v[0]
}

// ExpInto sets dst[i] = e^src[i] to within 0.51 ulp for every element of src
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
func ExpInto(dst, src []float64) {
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
