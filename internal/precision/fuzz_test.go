package precision

import (
	"encoding/binary"
	"math"
	"testing"
)

// FuzzGroupScaledRoundTrip drives the group-scaled encoder with arbitrary
// field contents and group sizes: every finite input must encode without
// error, decode through the error-returning form, land within the
// representation's bit-error budget, and re-encode idempotently (the decoded
// field re-encodes to bit-identical values and scales — the property that
// keeps repeated quantization cycles from drifting).
func FuzzGroupScaledRoundTrip(f *testing.F) {
	seed := func(group int, vals ...float64) []byte {
		b := make([]byte, 2+8*len(vals))
		b[0] = byte(group)
		b[1] = byte(group >> 8)
		for i, v := range vals {
			binary.LittleEndian.PutUint64(b[2+8*i:], math.Float64bits(v))
		}
		return b
	}
	f.Add(seed(1, 1.0, -2.0, 3.5))
	f.Add(seed(4, 0.0, 0.0, 0.0, 0.0, 1e-300, 1e300))
	f.Add(seed(64, math.MaxFloat64, -math.MaxFloat64, 5e-324, 1.0))
	f.Add(seed(3, 101325.0, 3e-6, -9.81))
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 {
			return
		}
		group := int(data[0]) | int(data[1])<<8
		if group == 0 {
			group = 1
		}
		body := data[2:]
		x := make([]float64, len(body)/8)
		for i := range x {
			v := math.Float64frombits(binary.LittleEndian.Uint64(body[8*i:]))
			if math.IsNaN(v) || math.IsInf(v, 0) {
				v = 0 // the encoder's contract covers finite fields
			}
			x[i] = v
		}

		gs, err := EncodeGroupScaled(x, group)
		if err != nil {
			t.Fatalf("encode group=%d n=%d: %v", group, len(x), err)
		}
		got := make([]float64, len(x))
		if err := gs.DecodeInto(got); err != nil {
			t.Fatalf("decode: %v", err)
		}
		// Bit-error budget: one float32 rounding step of the scaled value.
		// Stored magnitudes stay below 1 except at the exponent cap, where
		// the maxQuant clamp admits values up to just under 2 — so the bound
		// is one ulp at 2.0, i.e. 2^-23 of the group's power-of-two scale.
		for g := 0; g*group < len(x); g++ {
			lo, hi := g*group, (g+1)*group
			if hi > len(x) {
				hi = len(x)
			}
			budget := gs.Scales[g] * math.Pow(2, -23)
			for i := lo; i < hi; i++ {
				if d := math.Abs(got[i] - x[i]); d > budget {
					t.Fatalf("value %d: |%v - %v| = %v exceeds budget %v (scale %v)",
						i, got[i], x[i], d, budget, gs.Scales[g])
				}
				if math.IsNaN(got[i]) || math.IsInf(got[i], 0) {
					t.Fatalf("value %d decoded non-finite %v from finite %v", i, got[i], x[i])
				}
			}
		}

		// Idempotence: re-encoding the decoded field reproduces the encoding.
		gs2 := &GroupScaled{}
		if err := EncodeGroupScaledInto(gs2, got, group); err != nil {
			t.Fatalf("re-encode: %v", err)
		}
		for g := range gs.Scales {
			if gs2.Scales[g] != gs.Scales[g] {
				t.Fatalf("group %d scale changed on re-encode: %v -> %v", g, gs.Scales[g], gs2.Scales[g])
			}
		}
		for i := range gs.Vals {
			if gs2.Vals[i] != gs.Vals[i] {
				t.Fatalf("value %d changed on re-encode: %v -> %v", i, gs.Vals[i], gs2.Vals[i])
			}
		}
	})
}
