package par

import (
	"fmt"

	"repro/internal/fault"
	"repro/internal/precision"
)

// WireFormat selects how the hot point-to-point paths — the halo exchanges
// and the coupler rearranger — encode their float64 payloads on the wire.
//
// WireF64 ships raw float64 slices (the historical, bit-exact format).
// WireGS32 ships precision group-scaled FP32 encodings: each group of
// WireGroup consecutive values shares one power-of-two float64 scale, so the
// payload shrinks from 8 bytes per value to 4 + 8/WireGroup ≈ 4.125 — the
// §5.2.3 mixed-precision machinery applied to the §5.2.4 traffic problem.
// Senders encode from their packed staging buffers into persistent per-peer
// GroupScaled payloads; receivers decode through the error-returning
// DecodeInto, so a corrupt or truncated message surfaces as a typed error
// instead of a rank-killing panic.
type WireFormat int

const (
	// WireF64 is the raw float64 wire format (default, bit-for-bit).
	WireF64 WireFormat = iota
	// WireGS32 is the group-scaled FP32 compressed wire format.
	WireGS32
)

// WireGroup is the quantization group size of the WireGS32 format: one
// shared power-of-two scale per 64 consecutive packed values. Chosen so the
// scale overhead stays under 2 % of the payload while each group tracks the
// local dynamic range of a packed halo row or rearranger block.
const WireGroup = 64

// String implements fmt.Stringer.
func (w WireFormat) String() string {
	switch w {
	case WireF64:
		return "f64"
	case WireGS32:
		return "gs32"
	default:
		return fmt.Sprintf("WireFormat(%d)", int(w))
	}
}

// ParseWireFormat parses the -wire flag spellings.
func ParseWireFormat(s string) (WireFormat, error) {
	switch s {
	case "f64":
		return WireF64, nil
	case "gs32":
		return WireGS32, nil
	default:
		return WireF64, fmt.Errorf("par: unknown wire format %q (have f64, gs32)", s)
	}
}

// PayloadTypeError reports a message whose payload kind does not match what
// the receiver asked for — with two payload kinds on the wire (raw float64
// and group-scaled), a mis-tagged message must surface as a returned error
// on the wire-decode path, not a rank-killing panic.
type PayloadTypeError struct {
	Src, Tag  int
	Got, Want string
}

// Error implements error.
func (e *PayloadTypeError) Error() string {
	return fmt.Sprintf("par: payload type mismatch from rank %d tag %d: got %s, want %s", e.Src, e.Tag, e.Got, e.Want)
}

// payloadKind names a received payload for PayloadTypeError diagnostics.
func payloadKind(m message) string {
	switch {
	case m.f64 != nil:
		return "[]float64"
	case m.gs != nil:
		return "*precision.GroupScaled"
	default:
		return "<empty>"
	}
}

// SendGS is SendF64 for group-scaled compressed payloads: the encoding
// lands in the message's typed slot beside f64, so the compressed halo-exchange hot path over persistent per-peer
// encodings performs zero allocations. The payload is shared by reference,
// exactly like SendF64 — senders must not repack the encoding until the
// receiver is known to have drained it (the parity-buffer discipline).
func SendGS(c *Comm, dst int, tag int, data *precision.GroupScaled) {
	if dst < 0 || dst >= c.state.size {
		panic(fmt.Sprintf("par: SendGS to invalid rank %d (size %d)", dst, c.state.size))
	}
	c.countP2PBytes(&c.stats.SendMsgs, &c.stats.SendBytes, "par.send.msgs", "par.send.bytes", int64(data.Bytes()))
	if f := fault.PointScoped(c.state.member, "par.send", c.rank); f != nil && f.Kind == fault.Stall {
		f.Sleep()
		if c.obs != nil {
			c.obs.AddCount("par.send.dropped", 1)
		}
		return
	}
	c.state.boxes[dst].put(message{src: c.rank, tag: tag, gs: data})
}

// RecvGS blocks until a message from src with the given tag arrives and
// returns its group-scaled payload. A payload of any other kind returns a
// *PayloadTypeError (the message is consumed), so the compressed wire path
// can route the fault through the recovery layer instead of panicking.
func RecvGS(c *Comm, src int, tag int) (*precision.GroupScaled, error) {
	c.state.setWaiting(c.rank, "RecvGS")
	m := c.state.boxes[c.rank].take(src, tag)
	c.state.clearWaiting(c.rank)
	if m.gs == nil {
		return nil, &PayloadTypeError{Src: m.src, Tag: m.tag, Got: payloadKind(m), Want: "*precision.GroupScaled"}
	}
	c.countP2PBytes(&c.stats.RecvMsgs, &c.stats.RecvBytes, "par.recv.msgs", "par.recv.bytes", int64(m.gs.Bytes()))
	return m.gs, nil
}
