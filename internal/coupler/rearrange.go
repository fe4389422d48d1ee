package coupler

import (
	"fmt"

	"repro/internal/par"
)

// RearrangeMode selects the communication pattern of the rearranger.
type RearrangeMode int

const (
	// ModeAlltoall is the original CPL7 implementation: one collective
	// all-to-all carrying every pair's block, including the many empty ones.
	ModeAlltoall RearrangeMode = iota
	// ModeP2P is the §5.2.4 optimization: non-blocking point-to-point
	// messages only between ranks that actually exchange data, overlapping
	// communication with the local pack/unpack work.
	ModeP2P
)

// String implements fmt.Stringer.
func (m RearrangeMode) String() string {
	switch m {
	case ModeAlltoall:
		return "alltoall"
	case ModeP2P:
		return "nonblocking-p2p"
	default:
		return fmt.Sprintf("RearrangeMode(%d)", int(m))
	}
}

const rearrangeTag = 7100

// Observer is the instrumentation hook consumed by the coupler — the
// structural subset of obs.Observer it needs, declared locally to keep the
// dependency order (obs sits above par, beside coupler).
type Observer interface {
	AddCount(name string, delta int64)
	SetGauge(name string, v float64)
}

// Rearrange moves an attribute vector from the source decomposition to the
// destination decomposition according to the router, using the selected
// communication mode. src must have LSize == router.NSrc; the result has
// LSize == router.NDst with the same fields. Both modes produce identical
// results; the P2P mode is the optimized production path.
func Rearrange(c *par.Comm, r *Router, src *AttrVect, mode RearrangeMode) (*AttrVect, error) {
	return RearrangeTo(c, r, src, mode, nil)
}

// RearrangeTo is Rearrange reporting its exchange volume to an observer:
// the number of messages this rank produced under the selected mode and the
// payload bytes it packed — the §5.2.4 traffic-reduction accounting,
// recorded per call. Under ModeP2P the self-rank block is short-circuited
// locally and never sent, so it counts toward neither messages nor bytes;
// under ModeAlltoall the collective touches every pair slot (msgs =
// commSize) and the bytes cover every packed block, the self slot included.
func RearrangeTo(c *par.Comm, r *Router, src *AttrVect, mode RearrangeMode, o Observer) (*AttrVect, error) {
	if src.LSize != r.NSrc {
		return nil, fmt.Errorf("coupler: rearrange source size %d, router expects %d", src.LSize, r.NSrc)
	}
	dst, err := NewAttrVect(src.Fields, r.NDst)
	if err != nil {
		return nil, err
	}
	if err := RearrangeInto(c, r, src, dst, mode, o); err != nil {
		return nil, err
	}
	return dst, nil
}

// RearrangeInto is the allocation-free form of Rearrange: it fills a
// caller-owned destination vector (LSize == router.NDst, same field list as
// src) through the router's persistent per-peer pack buffers. In steady
// state — after the first call has grown the buffers — a single-rank
// rearrange performs zero heap allocations in either mode, and multi-rank
// calls reuse every pack buffer. par.SendF64 shares payloads by reference, so a closing barrier orders buffer reuse after every peer
// has unpacked.
func RearrangeInto(c *par.Comm, r *Router, src, dst *AttrVect, mode RearrangeMode, o Observer) error {
	if src.LSize != r.NSrc {
		return fmt.Errorf("coupler: rearrange source size %d, router expects %d", src.LSize, r.NSrc)
	}
	if dst.LSize != r.NDst {
		return fmt.Errorf("coupler: rearrange destination size %d, router expects %d", dst.LSize, r.NDst)
	}
	if !sameFields(src, dst) {
		return fmt.Errorf("coupler: rearrange source/destination field lists differ")
	}
	nf := src.NFields()
	n := c.Size()
	me := c.Rank()
	if o != nil {
		var sentBytes, msgs int64
		for pe, offs := range r.SendTo {
			if len(offs) == 0 || (mode == ModeP2P && pe == me) {
				continue
			}
			sentBytes += int64(8 * nf * len(offs))
			msgs++
		}
		if mode == ModeAlltoall {
			msgs = int64(n) // the collective touches every pair slot
		}
		o.AddCount("coupler.rearrange.calls", 1)
		o.AddCount("coupler.rearrange.bytes", sentBytes)
		o.AddCount("coupler.rearrange.msgs", msgs)
	}
	r.ensurePeers(n)

	if n == 1 {
		// Pure-local fast path: no communication, so no barrier either.
		offs := r.SendTo[0]
		if len(offs) == 0 {
			return nil
		}
		buf := r.pbuf(0, nf*len(offs))
		packInto(buf, src, offs)
		return unpackFrom(dst, r.RecvFrom[0], buf)
	}

	var firstErr error
	switch mode {
	case ModeAlltoall:
		for pe := 0; pe < n; pe++ {
			buf := r.pbuf(pe, nf*len(r.SendTo[pe]))
			packInto(buf, src, r.SendTo[pe]) // empty blocks still participate
			r.sendTable[pe] = buf
		}
		recv := c.AlltoallvF64(r.sendTable)
		for pe := 0; pe < n; pe++ {
			if err := unpackFrom(dst, r.RecvFrom[pe], recv[pe]); err != nil && firstErr == nil {
				firstErr = err
			}
		}
	case ModeP2P:
		// Post sends only to ranks with data; local copy short-circuits.
		// The closing barrier (not parity double-buffering) orders reuse of
		// the pack buffers.
		for pe := 0; pe < n; pe++ {
			if pe == me || len(r.SendTo[pe]) == 0 {
				continue
			}
			buf := r.pbuf(pe, nf*len(r.SendTo[pe]))
			packInto(buf, src, r.SendTo[pe])
			par.SendF64(c, pe, rearrangeTag, buf)
		}
		if offs := r.SendTo[me]; len(offs) > 0 {
			// The self block never touches the wire.
			buf := r.pbuf(me, nf*len(offs))
			packInto(buf, src, offs)
			firstErr = unpackFrom(dst, r.RecvFrom[me], buf)
		}
		// Blocking receives in ascending peer order; the sends above are
		// buffered (par.SendF64 never blocks), so there is no cycle. Drain
		// every expected message even after an unpack error, so the closing
		// barrier is reached on all ranks.
		for pe := 0; pe < n; pe++ {
			if pe == me || len(r.RecvFrom[pe]) == 0 {
				continue
			}
			data := par.RecvF64(c, pe, rearrangeTag)
			if err := unpackFrom(dst, r.RecvFrom[pe], data); err != nil && firstErr == nil {
				firstErr = err
			}
		}
	default:
		return fmt.Errorf("coupler: unknown rearrange mode %v", mode)
	}
	// Publish "done reading every peer's buffer": after this barrier the
	// peers may repack their persistent buffers for the next call.
	c.Barrier()
	return firstErr
}

// ensurePeers sizes the router's persistent buffer tables for n peers.
func (r *Router) ensurePeers(n int) {
	if len(r.pbufs) < n {
		r.pbufs = make([][]float64, n)
	}
	if len(r.sendTable) < n {
		r.sendTable = make([][]float64, n)
	}
}

// pbuf returns the persistent pack buffer for peer pe with exactly n
// elements, growing it on first use.
func (r *Router) pbuf(pe, n int) []float64 {
	b := r.pbufs[pe]
	if cap(b) < n {
		b = make([]float64, n)
		r.pbufs[pe] = b
	}
	return b[:n]
}

// packInto gathers the listed source offsets field-by-field into buf
// (len(buf) == NFields·len(offs)).
func packInto(buf []float64, src *AttrVect, offs []int) {
	nf := src.NFields()
	for f := 0; f < nf; f++ {
		base := f * len(offs)
		fieldBase := f * src.LSize
		for i, off := range offs {
			buf[base+i] = src.Data[fieldBase+off]
		}
	}
}

// unpackFrom scatters buf into the listed destination offsets.
func unpackFrom(dst *AttrVect, offs []int, buf []float64) error {
	nf := dst.NFields()
	if len(buf) != nf*len(offs) {
		return fmt.Errorf("coupler: rearrange received %d values, want %d", len(buf), nf*len(offs))
	}
	for f := 0; f < nf; f++ {
		base := f * len(offs)
		fieldBase := f * dst.LSize
		for i, off := range offs {
			dst.Data[fieldBase+off] = buf[base+i]
		}
	}
	return nil
}

// sameFields reports whether two attribute vectors carry the same field
// list in the same order.
func sameFields(a, b *AttrVect) bool {
	if len(a.Fields) != len(b.Fields) {
		return false
	}
	for i := range a.Fields {
		if a.Fields[i] != b.Fields[i] {
			return false
		}
	}
	return true
}

// MessageCount returns how many messages rank's plan produces under each
// mode — the traffic-reduction accounting of §5.2.4, consistent with what
// RearrangeTo records: the collective touches every rank pair slot, while
// the point-to-point path sends only non-empty blocks and short-circuits
// the self block locally, so the self pair is excluded from p2p.
func (r *Router) MessageCount(rank, commSize int) (alltoall, p2p int) {
	alltoall = commSize
	for pe, s := range r.SendTo {
		if pe != rank && len(s) > 0 {
			p2p++
		}
	}
	return
}
