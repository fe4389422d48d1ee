package par

import (
	"errors"
	"math"
	"testing"

	"repro/internal/precision"
)

func TestWireFormatParseAndString(t *testing.T) {
	for _, tc := range []struct {
		s string
		w WireFormat
	}{{"f64", WireF64}, {"gs32", WireGS32}} {
		w, err := ParseWireFormat(tc.s)
		if err != nil || w != tc.w {
			t.Fatalf("ParseWireFormat(%q) = %v, %v", tc.s, w, err)
		}
		if w.String() != tc.s {
			t.Fatalf("String() = %q, want %q", w.String(), tc.s)
		}
	}
	if _, err := ParseWireFormat("fp16"); err == nil {
		t.Fatal("ParseWireFormat accepted an unknown format")
	}
}

func TestSendGSRecvGSRoundTrip(t *testing.T) {
	x := make([]float64, 300)
	for i := range x {
		x[i] = math.Cos(float64(i)) * math.Pow(10, float64(i%20-10))
	}
	Run(2, func(c *Comm) {
		if c.Rank() == 0 {
			gs, err := precision.EncodeGroupScaled(x, WireGroup)
			if err != nil {
				t.Errorf("encode: %v", err)
				return
			}
			SendGS(c, 1, 11, gs)
		} else {
			gs, err := RecvGS(c, 0, 11)
			if err != nil {
				t.Errorf("RecvGS: %v", err)
				return
			}
			got := make([]float64, len(x))
			if err := gs.DecodeInto(got); err != nil {
				t.Errorf("decode: %v", err)
				return
			}
			for i := range got {
				budget := math.Abs(x[i]) * 1.3e-7
				if d := math.Abs(got[i] - x[i]); d > budget {
					t.Errorf("value %d: |%v - %v| = %v exceeds %v", i, got[i], x[i], d, budget)
					return
				}
			}
			if c.Stats().RecvBytes.Load() != int64(gs.Bytes()) {
				t.Errorf("RecvBytes = %d, want compressed size %d", c.Stats().RecvBytes.Load(), gs.Bytes())
			}
		}
	})
}

// TestPayloadTypeMismatch injects the wrong payload kind across a 2-rank
// communicator in both directions and checks both receives return the typed
// *PayloadTypeError — with src, tag, and got/want kinds — instead of
// panicking, and consume the message.
func TestPayloadTypeMismatch(t *testing.T) {
	Run(2, func(c *Comm) {
		switch c.Rank() {
		case 0:
			// A raw f64 message where the peer expects group-scaled...
			SendF64(c, 1, 21, []float64{1, 2, 3})
			// ...a group-scaled message where the peer expects raw f64...
			gs, err := precision.EncodeGroupScaled([]float64{4, 5, 6}, 2)
			if err != nil {
				t.Errorf("encode: %v", err)
				return
			}
			SendGS(c, 1, 22, gs)
			// ...and a good f64 message behind the first, which must still arrive.
			SendF64(c, 1, 21, []float64{7})
		case 1:
			var pt *PayloadTypeError
			if _, err := RecvGS(c, 0, 21); !errors.As(err, &pt) {
				t.Errorf("RecvGS on f64 payload: err = %v, want *PayloadTypeError", err)
			} else {
				if pt.Src != 0 || pt.Tag != 21 {
					t.Errorf("PayloadTypeError src/tag = %d/%d, want 0/21", pt.Src, pt.Tag)
				}
				if pt.Got != "[]float64" || pt.Want != "*precision.GroupScaled" {
					t.Errorf("PayloadTypeError got/want = %q/%q", pt.Got, pt.Want)
				}
			}
			if _, err := RecvF64(c, 0, 22); !errors.As(err, &pt) {
				t.Errorf("RecvF64 on gs payload: err = %v, want *PayloadTypeError", err)
			} else if pt.Src != 0 || pt.Tag != 22 || pt.Got != "*precision.GroupScaled" || pt.Want != "[]float64" {
				t.Errorf("PayloadTypeError = %+v", pt)
			}
			if v, err := RecvF64(c, 0, 21); err != nil || len(v) != 1 || v[0] != 7 {
				t.Errorf("message behind the mismatch = %v, %v", v, err)
			}
		}
	})
}
