package statestore

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"runtime/debug"
	"slices"
	"sort"
	"sync"
	"time"
)

// Nearest-analog search: given a query state vector, find the k archived
// snapshots whose compressed state decodes closest to it in L2 distance —
// the forecast-analog primitive (which past states looked most like this
// one). Each snapshot is scored straight from its quantized bytes, one
// quantization group at a time, accumulating in float64 over the dequantized
// values in ascending cell order. Every term is a square, so a partial sum
// never exceeds the whole: it is a lower bound of the finished distance. The
// search is best-first on that bound: candidates sit in a min-heap keyed by
// (distance so far, snapshot id), the top is scored one group further, and a
// finished top is the next nearest — every other key already orders after
// it and can only grow. The search stops after k, having scored of the
// other snapshots only the groups it took to show they are farther. The
// distances it finishes are the sums a sequential brute-force pass over the
// decoded states computes, bit for bit, so the result is the brute force's
// too — pruning changes how much is scored, never the arithmetic.

// Analog is one scored nearest-analog candidate.
type Analog struct {
	Snap    int     `json:"snap"`
	Step    int     `json:"step"`
	SimTime float64 `json:"sim_time"`
	Dist    float64 `json:"dist"` // squared L2 distance over the decoded field
}

// minSearchChunk is the fewest snapshots a search goroutine takes. Each
// chunk finds its own k, so splitting pays only once a chunk's search costs
// more than that and a goroutine's wake-up: on a 2-vCPU host, two workers
// over 642-cell fields took 36 µs against one's 28 at 128 snapshots, 120
// against 87 at 512, 155 against 171 at 1024 and 302 against 421 at 2048.
const minSearchChunk = 1024

// NearestAnalogs returns the k snapshots of field closest to query,
// ordered by ascending distance with snapshot id breaking ties. The query
// must have the field's length and finite values. workers ≤ 0 selects 4;
// the snapshots are split into at most that many contiguous chunks of at
// least minSearchChunk, searched concurrently, and no more goroutines run
// than there are processors. k is capped at the snapshot count.
func (s *Store) NearestAnalogs(field string, query []float64, k, workers int) ([]Analog, error) {
	return s.nearestAnalogs(context.Background(), field, query, k, workers)
}

func (s *Store) nearestAnalogs(ctx context.Context, field string, query []float64, k, workers int) ([]Analog, error) {
	t0 := time.Now()
	v, err := s.begin()
	if err != nil {
		return nil, err
	}
	defer s.mu.RUnlock()
	m := v.man
	fi, err := fieldIndex(m.Fields, field)
	if err != nil {
		return nil, err
	}
	if len(query) != m.Fields[fi].Elems {
		return nil, fmt.Errorf("statestore: analog query has %d elements, field %q has %d",
			len(query), field, m.Fields[fi].Elems)
	}
	for c, q := range query {
		if math.IsNaN(q) || math.IsInf(q, 0) {
			return nil, fmt.Errorf("statestore: analog query value %v at cell %d is not finite", q, c)
		}
	}
	if k <= 0 {
		return nil, fmt.Errorf("statestore: analog k must be positive, got %d", k)
	}
	n := len(m.Snaps)
	k = min(k, n)
	if workers <= 0 {
		workers = 4
	}
	workers = max(1, min(workers, runtime.GOMAXPROCS(0), n/minSearchChunk))

	// Worker w searches snapshots [w·chunk, (w+1)·chunk) for their own k
	// nearest, the caller's goroutine being worker 0; the k nearest of all
	// are among those.
	chunk := (n + workers - 1) / workers
	found := make([][]scored, workers)
	errs := make([]error, workers)
	search := func(w int) {
		lo, hi := min(w*chunk, n), min((w+1)*chunk, n)
		found[w], errs[w] = s.searchSnaps(ctx, v, fi, query, lo, hi, k)
	}
	var wg sync.WaitGroup
	for w := 1; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			search(w)
		}()
	}
	search(0)
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	best := slices.Concat(found...)
	if workers > 1 {
		slices.SortFunc(best, func(a, b scored) int {
			if a.before(b) {
				return -1
			}
			return 1
		})
		best = best[:k]
	}
	out := make([]Analog, len(best))
	for i, c := range best {
		sm := &m.Snaps[c.snap]
		out[i] = Analog{Snap: c.snap, Step: int(sm.Step), SimTime: sm.SimTime, Dist: c.sum}
	}
	count(s.obs, "serve.analog.queries", 1)
	observe(s.obs, "serve.analog.latency_us", float64(time.Since(t0).Microseconds()))
	return out, nil
}

// scored is a snapshot in the search: the distance summed over its groups
// before next.
type scored struct {
	sum  float64
	snap int
	next int
}

// before orders candidates by (distance so far, snapshot id).
func (a scored) before(b scored) bool {
	return a.sum < b.sum || a.sum == b.sum && a.snap < b.snap
}

// searchSnaps returns the k nearest of snapshots [lo, hi) to query, nearest
// first.
func (s *Store) searchSnaps(ctx context.Context, v *view, fi int, query []float64, lo, hi, k int) (out []scored, err error) {
	defer recoverFault(debug.SetPanicOnFault(true), &err)
	var t touches
	defer t.report(s.obs)
	blobs := make([][]byte, hi-lo)
	for i := range blobs {
		if blobs[i], err = s.blob(v, lo+i, fi, &t); err != nil {
			return nil, err
		}
	}
	// Every sum starts at zero, so snapshot order is heap order.
	h := make([]scored, hi-lo)
	for i := range h {
		h[i].snap = lo + i
	}
	g, elems := v.man.Group, len(query)
	ng := groups(elems, g)
	out = make([]scored, 0, min(k, len(h)))
	for steps := 0; len(out) < cap(out); steps++ {
		if steps%256 == 0 {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
		}
		top := &h[0]
		if top.next == ng {
			out = append(out, *top)
			h[0] = h[len(h)-1]
			h = h[:len(h)-1]
		} else {
			b := blobs[top.snap-lo]
			c0 := top.next * g
			c1 := min(c0+g, elems)
			top.sum = l2group(b[8*ng+4*c0:8*ng+4*c1], query[c0:c1], scaleAt(b, top.next), top.sum)
			top.next++
		}
		siftDown(h)
	}
	return out, nil
}

// siftDown restores the heap order of h after its top changed.
func siftDown(h []scored) {
	for i := 0; ; {
		c := 2*i + 1
		if c >= len(h) {
			return
		}
		if c+1 < len(h) && h[c+1].before(h[c]) {
			c++
		}
		if !h[c].before(h[i]) {
			return
		}
		h[i], h[c] = h[c], h[i]
		i = c
	}
}

// l2group adds one quantization group's squared differences to sum. The
// explicit float64 conversion rounds the dequantized value before the
// subtraction, as storing it into a decoded slice would, so no platform fuses
// the two and the sum equals l2dist's bit-for-bit. Four values a turn through
// fixed-size windows keeps the adds in index order and drops the bounds
// checks and slice arithmetic that otherwise outnumber the arithmetic three
// to one: 1.1 → 0.7 µs per 642-cell blob, the add chain alone being 0.45.
func l2group(vs []byte, qs []float64, scale, sum float64) float64 {
	for len(vs) >= 16 && len(qs) >= 4 {
		v, q := (*[16]byte)(vs), (*[4]float64)(qs)
		d0 := float64(value(v[0:4])*scale) - q[0]
		d1 := float64(value(v[4:8])*scale) - q[1]
		d2 := float64(value(v[8:12])*scale) - q[2]
		d3 := float64(value(v[12:16])*scale) - q[3]
		sum += d0 * d0
		sum += d1 * d1
		sum += d2 * d2
		sum += d3 * d3
		vs, qs = vs[16:], qs[4:]
	}
	for c, qc := range qs {
		d := float64(value(vs[4*c:])*scale) - qc
		sum += d * d
	}
	return sum
}

// BruteForceAnalogs is the reference implementation: a sequential scan over
// every snapshot in index order, each decoded to float64 and scored with
// l2dist. NearestAnalogs must match it exactly; the benchmark gate and tests
// pin that.
func (s *Store) BruteForceAnalogs(field string, query []float64, k int) (all []Analog, err error) {
	v, err := s.begin()
	if err != nil {
		return nil, err
	}
	defer s.mu.RUnlock()
	defer recoverFault(debug.SetPanicOnFault(true), &err)
	var t touches
	defer t.report(s.obs)
	m := v.man
	fi, err := fieldIndex(m.Fields, field)
	if err != nil {
		return nil, err
	}
	if len(query) != m.Fields[fi].Elems {
		return nil, fmt.Errorf("statestore: analog query has %d elements, field %q has %d",
			len(query), field, m.Fields[fi].Elems)
	}
	all = make([]Analog, 0, len(m.Snaps))
	decoded := make([]float64, len(query))
	for i, sm := range m.Snaps {
		b, err := s.blob(v, i, fi, &t)
		if err != nil {
			return nil, err
		}
		dequantize(decoded, b, m.Group)
		all = append(all, Analog{Snap: i, Step: int(sm.Step), SimTime: sm.SimTime, Dist: l2dist(decoded, query)})
	}
	sort.Slice(all, func(i, j int) bool {
		if all[i].Dist != all[j].Dist {
			return all[i].Dist < all[j].Dist
		}
		return all[i].Snap < all[j].Snap
	})
	if len(all) > k {
		all = all[:k]
	}
	return all, nil
}

// l2dist is the reference distance kernel: squared-difference accumulation
// in ascending index order.
func l2dist(a, b []float64) float64 {
	var sum float64
	for i := range a {
		d := a[i] - b[i]
		sum += d * d
	}
	return sum
}
