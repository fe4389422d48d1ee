package coupler

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"sort"

	"repro/internal/par"
)

// Router is MCT's M×N transfer table: given a source decomposition (GSMap)
// over M processes and a destination decomposition over N processes, it
// records, for the calling rank, which local elements go to which
// destination rank and where arriving elements land locally.
//
// Because both GSMaps are globally replicated, the plan is computed without
// communication; what is expensive is holding and scanning both segment
// tables — the §5.2.4 motivation for building Routers offline as a
// preprocessing step on Sunway.
type Router struct {
	// SendTo[r] lists local source offsets (positions within this rank's
	// local vector, ordered by global index) destined for rank r.
	SendTo [][]int
	// RecvFrom[r] lists local destination offsets filled by values arriving
	// from rank r, in the order that rank sends them.
	RecvFrom [][]int
	// NSrc and NDst are the local vector lengths on each side.
	NSrc, NDst int

	// Persistent per-peer pack buffers and the alltoall send table of the
	// allocation-free rearrange path (RearrangeInto). Lazily grown and
	// unexported, so gob snapshots and plan comparisons see only the plan.
	pbufs     [][]float64
	sendTable [][]float64
}

// BuildRouter constructs the plan for the calling rank, which participates
// on both sides of the transfer (the usual CPL7 arrangement where the
// coupler runs on the union of processes). The local element order on each
// side is ascending global index, matching GSMap.LocalIndices.
//
// The per-destination index lists are sorted with the standard library's
// introsort — the "quick sort algorithm for rearranging communication" that
// the CPL7 optimization adopts (§5.1.1) to replace MCT's original
// insertion-style ordering.
func BuildRouter(c *par.Comm, src, dst *GSMap) (*Router, error) {
	if src.GlobalSize != dst.GlobalSize {
		return nil, fmt.Errorf("coupler: router over mismatched global sizes %d vs %d", src.GlobalSize, dst.GlobalSize)
	}
	me := c.Rank()
	n := c.Size()
	r := &Router{
		SendTo:   make([][]int, n),
		RecvFrom: make([][]int, n),
	}

	// Send side: walk my source indices, route each to its destination owner.
	mysrc := src.LocalIndices(me)
	r.NSrc = len(mysrc)
	type pair struct{ gi, off int }
	byDst := make(map[int][]pair)
	for off, gi := range mysrc {
		pe, err := dst.Owner(gi)
		if err != nil {
			return nil, err
		}
		byDst[pe] = append(byDst[pe], pair{gi, off})
	}
	for pe, ps := range byDst {
		sort.Slice(ps, func(i, j int) bool { return ps[i].gi < ps[j].gi })
		offs := make([]int, len(ps))
		for i, p := range ps {
			offs[i] = p.off
		}
		r.SendTo[pe] = offs
	}

	// Receive side: walk my destination indices, find each one's source owner.
	mydst := dst.LocalIndices(me)
	r.NDst = len(mydst)
	bySrc := make(map[int][]pair)
	for off, gi := range mydst {
		pe, err := src.Owner(gi)
		if err != nil {
			return nil, err
		}
		bySrc[pe] = append(bySrc[pe], pair{gi, off})
	}
	for pe, ps := range bySrc {
		// The sender transmits in ascending global order, so receiving
		// offsets must be ordered the same way.
		sort.Slice(ps, func(i, j int) bool { return ps[i].gi < ps[j].gi })
		offs := make([]int, len(ps))
		for i, p := range ps {
			offs[i] = p.off
		}
		r.RecvFrom[pe] = offs
	}
	return r, nil
}

// BuildRouterOffline computes the Router plans of every rank serially (the
// preprocessing tool's code path) and returns them indexed by rank.
func BuildRouterOffline(src, dst *GSMap, nprocs int) ([]*Router, error) {
	if src.GlobalSize != dst.GlobalSize {
		return nil, fmt.Errorf("coupler: router over mismatched global sizes %d vs %d", src.GlobalSize, dst.GlobalSize)
	}
	routers := make([]*Router, nprocs)
	for pe := range routers {
		routers[pe] = &Router{
			SendTo:   make([][]int, nprocs),
			RecvFrom: make([][]int, nprocs),
		}
	}
	// One pass over the global index space builds every rank's plan.
	srcOff := make([]int, nprocs)
	dstOff := make([]int, nprocs)
	for gi := 0; gi < src.GlobalSize; gi++ {
		sp, err := src.Owner(gi)
		if err != nil {
			return nil, err
		}
		dp, err := dst.Owner(gi)
		if err != nil {
			return nil, err
		}
		routers[sp].SendTo[dp] = append(routers[sp].SendTo[dp], srcOff[sp])
		routers[dp].RecvFrom[sp] = append(routers[dp].RecvFrom[sp], dstOff[dp])
		srcOff[sp]++
		dstOff[dp]++
	}
	for pe := range routers {
		routers[pe].NSrc = srcOff[pe]
		routers[pe].NDst = dstOff[pe]
	}
	return routers, nil
}

// Record publishes the router plan's footprint and shape as gauges under
// the given metric prefix ("<prefix>.bytes", "<prefix>.nsrc",
// "<prefix>.ndst", "<prefix>.peers") — the aggregation-size accounting the
// offline-preprocessing discussion of §5.2.4 measures.
func (r *Router) Record(o Observer, prefix string) {
	if o == nil {
		return
	}
	peers := 0
	for _, s := range r.SendTo {
		if len(s) > 0 {
			peers++
		}
	}
	o.SetGauge(prefix+".bytes", float64(r.Bytes()))
	o.SetGauge(prefix+".nsrc", float64(r.NSrc))
	o.SetGauge(prefix+".ndst", float64(r.NDst))
	o.SetGauge(prefix+".peers", float64(peers))
}

// Bytes returns the router's table footprint.
func (r *Router) Bytes() int {
	n := 0
	for _, s := range r.SendTo {
		n += 8 * len(s)
	}
	for _, s := range r.RecvFrom {
		n += 8 * len(s)
	}
	return n
}

// Encode serializes the router for the offline-preprocessing file.
func (r *Router) Encode() ([]byte, error) {
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(r); err != nil {
		return nil, fmt.Errorf("coupler: encoding router: %w", err)
	}
	return buf.Bytes(), nil
}

// DecodeRouter deserializes a router produced by Encode.
func DecodeRouter(data []byte) (*Router, error) {
	var r Router
	if err := gob.NewDecoder(bytes.NewReader(data)).Decode(&r); err != nil {
		return nil, fmt.Errorf("coupler: decoding router: %w", err)
	}
	return &r, nil
}
