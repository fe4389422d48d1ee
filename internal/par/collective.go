package par

import "fmt"

// Op is a reduction operator over float64.
type Op func(a, b float64) float64

// Built-in reduction operators.
var (
	OpSum Op = func(a, b float64) float64 { return a + b }
	OpMax Op = func(a, b float64) float64 {
		if a > b {
			return a
		}
		return b
	}
	OpMin Op = func(a, b float64) float64 {
		if a < b {
			return a
		}
		return b
	}
)

// Allreduce reduces one float64 per rank with op and returns the result on
// every rank. Reduction order is fixed by rank, so results are deterministic.
func (c *Comm) Allreduce(v float64, op Op) float64 {
	c.countCollective("par.collective.allreduce", v)
	all := c.exchange(v)
	acc := all[0].(float64)
	for _, x := range all[1:] {
		acc = op(acc, x.(float64))
	}
	return acc
}

// AllreduceSlice element-wise reduces equal-length slices across ranks.
// The returned slice is freshly allocated on every rank.
func (c *Comm) AllreduceSlice(v []float64, op Op) []float64 {
	out := make([]float64, len(v))
	c.AllreduceSliceInto(out, v, op)
	return out
}

// AllreduceSliceInto element-wise reduces equal-length slices across ranks
// into dst, which must be as long as v and must not overlap it; v is the
// caller's again when the call returns. It allocates nothing: every rank
// reads the others' v in place (on one rank the reduction is a copy; it
// still counts as one collective).
func (c *Comm) AllreduceSliceInto(dst, v []float64, op Op) {
	if len(dst) != len(v) {
		panic(fmt.Sprintf("par: AllreduceSliceInto into %d values from %d", len(dst), len(v)))
	}
	c.countCollectiveBytes("par.collective.allreduce", int64(8*len(v)))
	cs := c.state
	if cs.size == 1 {
		copy(dst, v)
		return
	}
	cs.setWaiting(c.rank, "collective exchange")
	cs.smu.Lock()
	gen := cs.sgen
	cs.fslots[c.rank] = v
	cs.sdone++
	if cs.sdone == cs.size {
		cs.sdone = 0
		cs.sgen++
		cs.scond.Broadcast()
	} else {
		for gen == cs.sgen {
			cs.park(&cs.smu, cs.scond)
		}
	}
	cs.smu.Unlock()
	cs.clearWaiting(c.rank)
	for r, x := range cs.fslots {
		if len(x) != len(dst) {
			panic(fmt.Sprintf("par: AllreduceSlice length mismatch: rank %d has %d, rank %d has %d", c.rank, len(dst), r, len(x)))
		}
		if r == 0 {
			copy(dst, x)
			continue
		}
		for i := range dst {
			dst[i] = op(dst[i], x[i])
		}
	}
	// The other ranks read v and the slots after the exchange: none returns
	// until all have reduced, so no caller refills its v, nor a later
	// collective a slot, under a peer's reduction.
	c.Barrier()
}

// AllreduceInt reduces one int per rank with integer addition.
func (c *Comm) AllreduceInt(v int) int {
	c.countCollective("par.collective.allreduce", v)
	all := c.exchange(v)
	sum := 0
	for _, x := range all {
		sum += x.(int)
	}
	return sum
}

// Gather collects one value per rank at root; non-root ranks receive nil.
func Gather[T any](c *Comm, root int, v T) []T {
	c.countCollective("par.collective.gather", any(v))
	all := c.exchange(any(v))
	if c.rank != root {
		return nil
	}
	out := make([]T, len(all))
	for i, x := range all {
		out[i] = x.(T)
	}
	return out
}

// Allgather collects one value per rank on every rank, ordered by rank.
func Allgather[T any](c *Comm, v T) []T {
	c.countCollective("par.collective.allgather", any(v))
	all := c.exchange(any(v))
	out := make([]T, len(all))
	for i, x := range all {
		out[i] = x.(T)
	}
	return out
}

// AlltoallvF64 exchanges variable-length float64 blocks: send[i] goes to
// rank i. The returned slice holds, per source rank, the block that rank
// sent here. This is the communication core of the coupler's baseline
// rearranger (§5.2.4). send must have Size elements.
func (c *Comm) AlltoallvF64(send [][]float64) [][]float64 {
	if len(send) != c.state.size {
		panic(fmt.Sprintf("par: AlltoallvF64 needs %d blocks, got %d", c.state.size, len(send)))
	}
	c.countCollective("par.collective.alltoall", send)
	all := c.exchange(send)
	out := make([][]float64, c.state.size)
	for src, x := range all {
		out[src] = x.([][]float64)[c.rank]
	}
	return out
}
