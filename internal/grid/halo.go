package grid

import (
	"fmt"

	"repro/internal/par"
)

// haloPlan is the package's one halo exchange. Both decompositions build
// their plans once, at construction, and run every exchange through them:
// start packs one payload per peer and sends it, finish receives and
// scatters, then fills the ghosts this rank resolves itself.
//
// Each ghost point takes the value of exactly one owned point, or zero. A
// source owned by a peer is a receive entry, matched by a send entry in the
// same position of the peer's list for this rank; a source this rank owns is
// a local copy, never a message; a source nobody owns (a land-eliminated
// block) is a zero. No entry reads another ghost, so the order in which the
// entries are applied does not matter.
//
// The peer set is symmetric, and every exchange sends exactly one (possibly
// empty) message to, and receives exactly one from, every peer. That is what
// makes the two-deep parity buffers safe without a barrier: before this rank
// repacks parity p it has finished the exchange after p's, which needed
// every peer's message of that exchange, which each peer sent only after
// finishing — and so draining — exchange p.
type haloPlan struct {
	comm  *par.Comm
	tag   int
	peers []int

	// route[0] moves scalar fields, route[1] vector fields. They differ
	// only on the tripolar fold rows; the icosahedral plans alias them.
	route [2]haloRoute

	bufs   [2][][]float64 // per parity, per peer: the packed payload
	parity int

	obs               HaloObserver
	ctrMsgs, ctrBytes string
}

// haloRoute is where one kind of field's ghosts come from.
type haloRoute struct {
	send, recv [][]int // per peer: points to pack / to fill, in the same order on both sides
	dst, src   []int   // local copies: point dst[i] takes point src[i]
	zero       []int   // points zeroed: their source is owned by no rank
}

// rankRoute is a haloRoute before the peer set is fixed: the send and
// receive lists are indexed by rank.
type rankRoute struct {
	sendTo, recvFrom [][]int
	dst, src, zero   []int
}

func newRankRoute(size int) rankRoute {
	return rankRoute{sendTo: make([][]int, size), recvFrom: make([][]int, size)}
}

// symmetricPeers returns, ascending, every rank other than this one that a
// route sends to or receives from. Every rank derives its lists from the
// same rank-independent data, so when rank a lists b, b lists a: the set is
// symmetric without negotiation.
func symmetricPeers(rank int, routes ...rankRoute) []int {
	var peers []int
	for r := range routes[0].sendTo {
		if r == rank {
			continue
		}
		for _, rt := range routes {
			if len(rt.sendTo[r]) > 0 || len(rt.recvFrom[r]) > 0 {
				peers = append(peers, r)
				break
			}
		}
	}
	return peers
}

// newHaloPlan fixes a plan over a peer set (see symmetricPeers); a plan
// whose fields are never vectors passes its scalar route twice.
func newHaloPlan(c *par.Comm, tag int, peers []int, scalar, vector rankRoute) haloPlan {
	pl := haloPlan{comm: c, tag: tag, peers: peers}
	for v, rt := range [2]rankRoute{scalar, vector} {
		r := &pl.route[v]
		r.dst, r.src, r.zero = rt.dst, rt.src, rt.zero
		for _, p := range peers {
			r.send = append(r.send, rt.sendTo[p])
			r.recv = append(r.recv, rt.recvFrom[p])
		}
	}
	for pb := range pl.bufs {
		pl.bufs[pb] = make([][]float64, len(peers))
	}
	return pl
}

// setObserver attaches the cpl.halo.{msgs,bytes} counters under the given
// names.
func (pl *haloPlan) setObserver(o HaloObserver, msgs, bytes string) {
	pl.obs, pl.ctrMsgs, pl.ctrBytes = o, msgs, bytes
}

// haloSlab is one field as a plan addresses it: level k ∈ [0, nlev) of
// point p is data[p*ps + k*ks]. The icosahedral columns [p*nlev + k] have
// ps = nlev and ks = 1 (a level window [lo, hi) starts data at lo); the
// tripolar level planes [k*n2 + p] have ps = 1 and ks = n2.
type haloSlab struct {
	data   []float64
	ps, ks int
	nlev   int
	vec    bool
}

// pack copies the listed points' levels into buf, point after point, and
// returns the number of values written.
func (f haloSlab) pack(buf []float64, list []int) int {
	data, ps, ks, n := f.data, f.ps, f.ks, f.nlev
	pos := 0
	for _, p := range list {
		at := p * ps
		if ks == 1 {
			pos += copy(buf[pos:pos+n], data[at:at+n])
			continue
		}
		for k := 0; k < n; k++ {
			buf[pos] = data[at+k*ks]
			pos++
		}
	}
	return pos
}

// unpack is pack's inverse: it writes msg over the listed points' levels
// and returns the number of values read.
func (f haloSlab) unpack(msg []float64, list []int) int {
	data, ps, ks, n := f.data, f.ps, f.ks, f.nlev
	pos := 0
	for _, p := range list {
		at := p * ps
		if ks == 1 {
			pos += copy(data[at:at+n], msg[pos:pos+n])
			continue
		}
		for k := 0; k < n; k++ {
			data[at+k*ks] = msg[pos]
			pos++
		}
	}
	return pos
}

func (pl *haloPlan) routeOf(f haloSlab) *haloRoute {
	if f.vec {
		return &pl.route[1]
	}
	return &pl.route[0]
}

// exchange is start followed by finish.
func (pl *haloPlan) exchange(fields []haloSlab) {
	pl.start(fields)
	pl.finish(fields)
}

// start packs and sends one payload per peer: for each field in order, each
// listed point's levels. It reads owned points only.
func (pl *haloPlan) start(fields []haloSlab) {
	pl.parity ^= 1
	bufs := pl.bufs[pl.parity]
	var bytes int64
	for pi, p := range pl.peers {
		need := 0
		for _, f := range fields {
			need += f.nlev * len(pl.routeOf(f).send[pi])
		}
		buf := bufs[pi]
		if cap(buf) < need {
			buf = make([]float64, need)
			bufs[pi] = buf
		}
		buf = buf[:need]
		pos := 0
		for _, f := range fields {
			pos += f.pack(buf[pos:], pl.routeOf(f).send[pi])
		}
		par.SendF64(pl.comm, p, pl.tag, buf)
		bytes += int64(8 * need)
	}
	if pl.obs != nil && len(pl.peers) > 0 {
		pl.obs.AddCount(pl.ctrMsgs, int64(len(pl.peers)))
		pl.obs.AddCount(pl.ctrBytes, bytes)
	}
}

// finish receives and scatters every peer's payload, then applies the local
// copies and zeros. It must follow start with the same batch shape.
func (pl *haloPlan) finish(fields []haloSlab) {
	for pi, p := range pl.peers {
		msg := par.RecvF64(pl.comm, p, pl.tag)
		want := 0
		for _, f := range fields {
			want += f.nlev * len(pl.routeOf(f).recv[pi])
		}
		if len(msg) != want {
			// Assert: both sides derive the lists from the same decomposition.
			panic(fmt.Sprintf("grid: halo message from rank %d has %d values, want %d", p, len(msg), want))
		}
		pos := 0
		for _, f := range fields {
			pos += f.unpack(msg[pos:], pl.routeOf(f).recv[pi])
		}
	}
	for _, f := range fields {
		r := pl.routeOf(f)
		for i, dst := range r.dst {
			at, from := dst*f.ps, r.src[i]*f.ps
			for k := 0; k < f.nlev; k++ {
				f.data[at+k*f.ks] = f.data[from+k*f.ks]
			}
		}
		for _, pt := range r.zero {
			at := pt * f.ps
			for k := 0; k < f.nlev; k++ {
				f.data[at+k*f.ks] = 0
			}
		}
	}
}
