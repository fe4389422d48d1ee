package pp

import (
	"math"
	"math/big"
	"math/rand"
	"testing"
)

// TestExpFloat64BitForBit is retired: it pinned Exp to math.Exp bit for bit,
// and the body is now the table-driven ExpInto, which differs
// from math.Exp in the last place by design (math.Exp on amd64 is an assembly
// routine whose result depends on whether the host has FMA). Its successors
// are TestExpAccuracy, TestExpEdges and TestExpTableMatchesBig below.

// bigExp evaluates e^x in math/big arithmetic to a relative error far below
// 2⁻⁸⁰: x = n·ln 2 + r, e^(r/256) by a degree-7 Horner Taylor sum
// (|r/256| < 0.0014, remainder < 2⁻⁹⁰), eight squarings, exponent shifted by n.
type bigExp struct {
	ln2, one, r, sum, got, diff *big.Float
	inv                         [8]*big.Float // inv[n] = 1/n
}

const bigExpPrec = 128

func newBigExp(t *testing.T) *bigExp {
	f := func() *big.Float { return new(big.Float).SetPrec(bigExpPrec) }
	b := &bigExp{ln2: f(), one: f().SetInt64(1), r: f(), sum: f(), got: f(), diff: f()}
	if _, ok := b.ln2.SetString("0.693147180559945309417232121458176568075500134360255254120680009493393621969694715605863327"); !ok {
		t.Fatal("ln 2 literal does not parse")
	}
	for n := 1; n < len(b.inv); n++ {
		b.inv[n] = f().Quo(b.one, f().SetInt64(int64(n)))
	}
	return b
}

// eval leaves e^x in b.sum and returns it.
func (b *bigExp) eval(x float64) *big.Float {
	n := math.Round(x / math.Ln2)
	b.r.SetFloat64(n)
	b.r.Mul(b.r, b.ln2)
	b.sum.SetFloat64(x)
	b.r.Sub(b.sum, b.r)
	b.r.SetMantExp(b.r, -8)
	b.sum.Set(b.one)
	for k := len(b.inv) - 1; k >= 1; k-- { // 1 + r/1·(1 + r/2·(… (1 + r/7)))
		b.sum.Mul(b.sum, b.r)
		b.sum.Mul(b.sum, b.inv[k])
		b.sum.Add(b.sum, b.one)
	}
	for i := 0; i < 8; i++ {
		b.sum.Mul(b.sum, b.sum)
	}
	return b.sum.SetMantExp(b.sum, int(n))
}

// ulps returns |got − e^x| in units of the last place of the true result
// (2⁻¹⁰⁷⁴ where the result is subnormal).
func (b *bigExp) ulps(x, got float64) float64 {
	ref := b.eval(x)
	e := ref.MantExp(nil) - 53 // ref = m·2^(e+53), m in [0.5, 1)
	if e < -1074 {
		e = -1074
	}
	b.got.SetFloat64(got)
	b.diff.Sub(b.got, ref)
	b.diff.SetMantExp(b.diff, -e)
	u, _ := b.diff.Float64()
	return math.Abs(u)
}

// The reference itself, against values known to every digit.
func TestBigExpReference(t *testing.T) {
	b := newBigExp(t)
	for _, c := range []struct {
		x    float64
		want string
	}{
		{1, "2.71828182845904523536028747135266249775724709369995957"},
		{-1, "0.367879441171442321595523770161460867445811131031767834"},
		{0.5, "1.64872127070012814684865078781416357165377610071014801"},
		{-20, "2.06115362243855782796594038015826435008861604277258787e-9"},
		{100, "2.68811714181613544841262555158001358736111187737419183e43"},
	} {
		want, _, err := big.ParseFloat(c.want, 10, bigExpPrec, big.ToNearestEven)
		if err != nil {
			t.Fatal(err)
		}
		got := b.eval(c.x)
		rel, _ := new(big.Float).Quo(new(big.Float).Sub(got, want), want).Float64()
		if math.Abs(rel) > 1e-24 {
			t.Errorf("bigExp(%v) off by %.3e relative", c.x, rel)
		}
	}
}

// The float64 exponential against the math/big reference: a dense grid over [−60, 0], where
// every radiation argument falls, and seeded draws over the whole finite
// range of the result. Inside (−700, 700) the table path must stay within
// one ulp (its design envelope is 0.51); outside, Exp defers to math.Exp and
// returns its bits.
func TestExpAccuracy(t *testing.T) {
	b := newBigExp(t)
	worst, worstX := 0.0, 0.0
	check := func(x float64) {
		got := Exp(x)
		if !(x > -700 && x < 700) {
			if want := math.Exp(x); math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("Exp(%v) = %v, want math.Exp's %v outside the table range", x, got, want)
			}
			return
		}
		u := b.ulps(x, got)
		if u > worst {
			worst, worstX = u, x
		}
		if u > 1 {
			t.Fatalf("Exp(%v) = %v is %.3f ulp from the math/big reference", x, got, u)
		}
	}
	const gridStep = 1.0 / 2048
	for i := 0; i <= 60*2048; i++ {
		check(-60 + float64(i)*gridStep)
	}
	draws := 1 << 20
	if testing.Short() {
		draws = 1 << 16
	}
	rng := rand.New(rand.NewSource(20251003))
	for i := 0; i < draws; i++ {
		check(-745 + (709+745)*rng.Float64())
	}
	t.Logf("worst error %.4f ulp at x = %v", worst, worstX)
	if worst > 0.52 {
		t.Errorf("worst error %.4f ulp at x = %v exceeds the 0.52-ulp design envelope", worst, worstX)
	}
}

// The edges: e^0 is exactly 1, and everything the table path does not take —
// NaN, the infinities, overflow, gradual and total underflow, the range
// boundary itself — is math.Exp's answer bit for bit.
func TestExpEdges(t *testing.T) {
	if got := Exp(0.0); got != 1 {
		t.Errorf("Exp(0) = %v, want exactly 1", got)
	}
	if got := Exp(math.Copysign(0, -1)); got != 1 {
		t.Errorf("Exp(-0) = %v, want exactly 1", got)
	}
	for _, x := range []float64{
		math.NaN(), math.Inf(1), math.Inf(-1),
		700, -700, 709.78, 709.79, 710, 1e300,
		-708.4, -745, -745.2, -746, -1e300,
	} {
		got, want := Exp(x), math.Exp(x)
		if math.Float64bits(got) != math.Float64bits(want) && !(got != got && want != want) {
			t.Errorf("Exp(%v) = %v, want math.Exp's %v", x, got, want)
		}
	}
	// Just inside the boundary the table path must scale without touching the
	// exponent field's ends.
	b := newBigExp(t)
	for _, x := range []float64{math.Nextafter(700, 0), math.Nextafter(-700, 0)} {
		if u := b.ulps(x, Exp(x)); u > 1 {
			t.Errorf("Exp(%v) is %.3f ulp off", x, u)
		}
	}
}

// The committed table literals are 2^(j/128) to 106 bits: a math/big
// recomputation (2^(1/128) by seven square roots of 2, powers by repeated
// multiplication at 256 bits) reproduces every value and tail bit for bit.
func TestExpTableMatchesBig(t *testing.T) {
	const prec = 256
	root := new(big.Float).SetPrec(prec).SetInt64(2)
	for i := 0; i < 7; i++ {
		root.Sqrt(root)
	}
	pow := new(big.Float).SetPrec(prec).SetInt64(1)
	for j := range exp2Table {
		hi, _ := pow.Float64()
		bh := new(big.Float).SetPrec(prec).SetFloat64(hi)
		rel := new(big.Float).SetPrec(prec).Sub(pow, bh)
		tail, _ := rel.Quo(rel, bh).Float64()
		if got := exp2Table[j]; math.Float64bits(got[0]) != math.Float64bits(hi) || math.Float64bits(got[1]) != math.Float64bits(tail) {
			t.Errorf("exp2Table[%d] = {%x, %x}, math/big gives {%x, %x}", j, got[0], got[1], hi, tail)
		}
		pow.Mul(pow, root)
	}
}

// ExpInto must hand every element exactly the bits Exp returns, in place or
// not, for empty, single, one-column and odd lengths, fallback arguments
// included — that is what lets a kernel batch its exponentials without
// changing a number.
func TestExpIntoMatchesExp(t *testing.T) {
	for _, n := range []int{0, 1, 8, 257} {
		src := make([]float64, n)
		for i := range src {
			src[i] = -90 + 100*float64(i)/float64(n) + 0.137*float64(i%7)
		}
		// The arguments the table path hands to its fallback.
		for i, x := range []float64{-800, 705, math.NaN(), math.Inf(1), math.Inf(-1), -700, 700} {
			if 3+i < n {
				src[3+i] = x
			}
		}
		dst := make([]float64, n+1) // longer than src: the tail must be left alone
		dst[n] = -1
		ExpInto(dst, src)
		for i := range src {
			if got, want := dst[i], Exp(src[i]); math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("n=%d: ExpInto[%d] = %v, want Exp = %v", n, i, got, want)
			}
		}
		if dst[n] != -1 {
			t.Fatalf("n=%d: ExpInto wrote past len(src)", n)
		}
		// In place.
		ExpInto(src, src)
		for i := range src {
			if math.Float64bits(src[i]) != math.Float64bits(dst[i]) {
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
