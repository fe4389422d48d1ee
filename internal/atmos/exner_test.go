package atmos

import (
	"math"
	"math/big"
	"math/rand"
	"testing"
)

// bigPow evaluates x^y in math/big arithmetic to a relative error far below
// 2⁻⁹⁰, as e^(y·ln x). The exponential is pp's test reference over again (pp
// keeps it in a _test file): x = n·ln 2 + r, e^(r/256) by a degree-9 Horner
// Taylor sum, eight squarings, exponent shifted by n. The logarithm is one
// Newton step on it from math.Log: with y₀ = math.Log(x) and
// δ = x·e^(−y₀) − 1 (|δ| < 2⁻⁵⁰), ln x = y₀ + δ − δ²/2 + O(δ³).
type bigPow struct {
	ln2, one, half *big.Float
	inv            [10]*big.Float // inv[n] = 1/n
}

const bigPowPrec = 160

func newBigPow(t *testing.T) *bigPow {
	b := &bigPow{ln2: b160(), one: b160().SetInt64(1), half: b160().SetFloat64(0.5)}
	if _, ok := b.ln2.SetString("0.693147180559945309417232121458176568075500134360255254120680009493393621969694715605863327"); !ok {
		t.Fatal("ln 2 literal does not parse")
	}
	for n := 1; n < len(b.inv); n++ {
		b.inv[n] = b160().Quo(b.one, b160().SetInt64(int64(n)))
	}
	return b
}

func b160() *big.Float { return new(big.Float).SetPrec(bigPowPrec) }

// exp returns e^x.
func (b *bigPow) exp(x *big.Float) *big.Float {
	xf, _ := x.Float64()
	n := math.Round(xf / math.Ln2)
	r := b160().SetFloat64(n)
	r.Sub(x, r.Mul(r, b.ln2))
	r.SetMantExp(r, -8)
	sum := b160().Set(b.one)
	for k := len(b.inv) - 1; k >= 1; k-- { // 1 + r/1·(1 + r/2·(… (1 + r/9)))
		sum.Mul(sum, r)
		sum.Mul(sum, b.inv[k])
		sum.Add(sum, b.one)
	}
	for i := 0; i < 8; i++ {
		sum.Mul(sum, sum)
	}
	return sum.SetMantExp(sum, int(n))
}

// ln returns ln x for a positive x in float64 range.
func (b *bigPow) ln(x *big.Float) *big.Float {
	xf, _ := x.Float64()
	y0 := b160().SetFloat64(math.Log(xf))
	d := b.exp(b160().Neg(y0))
	d.Mul(d, x)
	d.Sub(d, b.one)
	d2 := b160().Mul(d, d)
	d2.Mul(d2, b.half)
	return y0.Add(y0, d.Sub(d, d2))
}

// pow returns x^y.
func (b *bigPow) pow(x *big.Float, y float64) *big.Float {
	l := b.ln(x)
	return b.exp(l.Mul(l, b160().SetFloat64(y)))
}

// ulpsOff returns |got − ref| in units of the last place of ref.
func ulpsOff(got float64, ref *big.Float) float64 {
	e := ref.MantExp(nil) - 53 // ref = m·2^(e+53), m in [0.5, 1)
	d := b160().SetFloat64(got)
	d.Sub(d, ref)
	d.SetMantExp(d, -e)
	u, _ := d.Float64()
	return math.Abs(u)
}

// The reference itself, against values known to every digit.
func TestBigPowReference(t *testing.T) {
	b := newBigPow(t)
	for _, c := range []struct {
		x, y float64
		want string
	}{
		{2, 0.5, "1.41421356237309504880168872420969807856967187537694807"},
		{10, -0.25, "0.562341325190349080394951039776481231468251043098691664"},
		{0.75, 3, "0.421875"},
		{3, 1.0 / 1024, "1.00107343928713770729081320370727642573506067627610681"},
	} {
		want, _, err := big.ParseFloat(c.want, 10, bigPowPrec, big.ToNearestEven)
		if err != nil {
			t.Fatal(err)
		}
		got := b.pow(b160().SetFloat64(c.x), c.y)
		rel, _ := b160().Quo(b160().Sub(got, want), want).Float64()
		if math.Abs(rel) > 1e-30 {
			t.Errorf("bigPow(%v, %v) off by %.3e relative", c.x, c.y, rel)
		}
	}
}

// TestExnerFactorAccuracy holds the factorised Exner function to the real
// one. The tracer step computes (σ_k·ps/P0)^κ as a tabulated σ_k^κ times one
// e^(κ·ln(ps/P0)) per column, and its reciprocal as 1/σ_k^κ tabulated times
// e^(−κ·ln(ps/P0)); this drives the live row bodies — tracerStore on θ = 1
// leaves the factor in T, thetaCell on T = 1 its reciprocal in θ — and
// compares with math/big over ps from 40 to 110 kPa at the model's σ levels
// for 6, 7 and 8 levels, on a grid and on seeded draws.
//
// Budgets, in units of the last place: the factor within 3 (math.Pow's table
// entry is up to 0.93 off at these levels, the column factor up to 0.90, and
// their product rounds once more: 2.31 measured), its reciprocal within 4
// (the table's 1/x is a fourth rounding: 3.04 measured), and a θ → T → θ
// round trip at one ps within 5 of where it started (four multiplications
// by two factor pairs that are reciprocal only to rounding: 4.00 measured).
// The unfactorised Exp(κ·Log x) this replaces was within 1 of the real
// function; the difference is part of the drift TestDycoreRegroupingDrift
// bounds.
func TestExnerFactorAccuracy(t *testing.T) {
	const psLo, psHi = 4e4, 1.1e5
	b := newBigPow(t)
	p0 := b160().SetFloat64(P0)
	rng := rand.New(rand.NewSource(24))
	draws := 1_000_000 // (ps, level) pairs, a column of levels per ps
	if testing.Short() {
		draws /= 10
	}

	var worstF, worstR, worstTrip float64
	for _, nlev := range []int{6, 7, 8} {
		m := newTestModel(t, 1, nlev)
		s := m.dyEnsure()
		s.bindSets()
		nc := m.Mesh.NCells()
		theta, newTheta, _ := s.tracerFields()
		sigK := make([]*big.Float, nlev)
		for k, sig := range m.Sig {
			sigK[k] = b.pow(b160().SetFloat64(sig), Kappa)
		}

		// check runs every column of the model at the surface pressures ps
		// hands out, first on unit fields against the reference, then on
		// seeded θ for the round trip.
		check := func(ps func() float64) {
			for c := 0; c < nc; c++ {
				m.Ps[c] = ps()
				s.lnPs[c] = m.Ps[c] // thetaCell reads the window's old ps here
			}
			for j := range m.T {
				m.T[j], newTheta[j] = 1, 1
			}
			for c := 0; c < nc; c++ {
				s.thetaCell(c)   // θ ← 1 · (σ_k·ps/P0)^−κ
				s.tracerStore(c) // T ← 1 · (σ_k·ps/P0)^κ
				col := b.pow(b160().Quo(b160().SetFloat64(m.Ps[c]), p0), Kappa)
				for k := 0; k < nlev; k++ {
					j := m.Idx(c, k)
					ref := b160().Mul(sigK[k], col)
					if u := ulpsOff(m.T[j], ref); u > worstF {
						worstF = u
					}
					if u := ulpsOff(theta[j], ref.Quo(b.one, ref)); u > worstR {
						worstR = u
					}
				}
			}
			for j := range newTheta {
				newTheta[j] = 250 + 200*rng.Float64()
			}
			start := append([]float64(nil), newTheta...)
			for c := 0; c < nc; c++ {
				s.tracerStore(c)
				s.thetaCell(c)
			}
			for j, th := range start {
				if u := math.Abs(theta[j]-th) / (math.Nextafter(th, math.Inf(1)) - th); u > worstTrip {
					worstTrip = u
				}
			}
		}

		const points = 20 * 42 // a multiple of the level-1 mesh's 42 columns
		i := 0
		for n := 0; n < points; n += nc {
			check(func() float64 { i++; return psLo + (psHi-psLo)*float64(i-1)/(points-1) })
		}
		for n := 0; n < draws/3; n += nc * nlev {
			check(func() float64 { return psLo + (psHi-psLo)*rng.Float64() })
		}
	}
	t.Logf("Exner factor %.3f ulp, reciprocal %.3f ulp, θ→T→θ %.3f ulp at worst", worstF, worstR, worstTrip)
	if worstF > 3 || worstR > 4 {
		t.Errorf("factorised Exner function off by %.3f ulp (budget 3), its reciprocal by %.3f ulp (budget 4)", worstF, worstR)
	}
	if worstTrip > 5 {
		t.Errorf("θ → T → θ at fixed ps comes back %.3f ulp away, budget 5", worstTrip)
	}
}
