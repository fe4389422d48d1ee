package statestore

import (
	"context"
	"fmt"
	"runtime"
	"runtime/debug"
	"sort"
	"sync"
	"time"
)

// Nearest-analog search: given a query state vector, find the k archived
// snapshots whose compressed state decodes closest to it in L2 distance —
// the forecast-analog primitive (which past states looked most like this
// one). Each snapshot is scored straight from its quantized bytes: workers
// take contiguous chunks of the snapshot range and write into one distance
// array, then a sequential top-k pass orders it. A distance is accumulated in
// float64 over the dequantized values in ascending index order, so the
// result is bit-identical to a sequential brute-force pass over the decoded
// states — concurrency changes only which snapshot is scored when, never
// the arithmetic.

// Analog is one scored nearest-analog candidate.
type Analog struct {
	Snap    int     `json:"snap"`
	Step    int     `json:"step"`
	SimTime float64 `json:"sim_time"`
	Dist    float64 `json:"dist"` // squared L2 distance over the decoded field
}

// NearestAnalogs returns the k snapshots of field closest to query,
// ordered by ascending distance with snapshot id breaking ties. The query
// must have the field's length. workers ≤ 0 selects 4; no more goroutines
// run than there are processors or snapshots, and k is capped at the
// snapshot count.
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
	if k <= 0 {
		return nil, fmt.Errorf("statestore: analog k must be positive, got %d", k)
	}
	n := len(m.Snaps)
	k = min(k, n)
	if workers <= 0 {
		workers = 4
	}
	workers = max(1, min(workers, runtime.GOMAXPROCS(0), n))

	// Score: worker w takes snapshots [w·chunk, (w+1)·chunk), the caller's
	// goroutine being worker 0.
	dists := make([]float64, n)
	chunk := (n + workers - 1) / workers
	errs := make([]error, workers)
	score := func(w int) {
		lo, hi := min(w*chunk, n), min((w+1)*chunk, n)
		errs[w] = s.scoreSnaps(ctx, v, fi, query, dists[lo:hi], lo)
	}
	var wg sync.WaitGroup
	for w := 1; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			score(w)
		}()
	}
	score(0)
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}

	// Top-k: keep the k best; the ordering depends only on (dist, snap).
	best := make([]Analog, 0, k+1)
	for i, dist := range dists {
		pos := sort.Search(len(best), func(j int) bool {
			if best[j].Dist != dist {
				return best[j].Dist > dist
			}
			return best[j].Snap > i
		})
		if pos >= k {
			continue
		}
		best = append(best, Analog{})
		copy(best[pos+1:], best[pos:])
		best[pos] = Analog{Snap: i, Step: int(m.Snaps[i].Step), SimTime: m.Snaps[i].SimTime, Dist: dist}
		if len(best) > k {
			best = best[:k]
		}
	}
	count(s.obs, "serve.analog.queries", 1)
	observe(s.obs, "serve.analog.latency_us", float64(time.Since(t0).Microseconds()))
	return best, nil
}

// scoreSnaps fills dists with the distance between query and field fi of
// snapshots lo, lo+1, …, one per element.
func (s *Store) scoreSnaps(ctx context.Context, v *view, fi int, query, dists []float64, lo int) (err error) {
	defer recoverFault(debug.SetPanicOnFault(true), &err)
	for i := range dists {
		if err := ctx.Err(); err != nil {
			return err
		}
		b, err := s.blob(v, lo+i, fi)
		if err != nil {
			return err
		}
		dists[i] = l2quantized(b, query, v.man.Group)
	}
	return nil
}

// l2quantized is l2dist between a field's quantized blob and q without the
// decoded copy: sum over cells, in ascending order, of the squared difference
// between the dequantized value and q's.
func l2quantized(b []byte, q []float64, g int) float64 {
	vals := b[8*groups(len(q), g):]
	var sum float64
	for c0, c1 := 0, 0; c0 < len(q); c0 = c1 {
		c1 = min(c0+g, len(q))
		sum = l2group(vals[4*c0:4*c1], q[c0:c1], scaleAt(b, c0/g), sum)
	}
	return sum
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
		b, err := s.blob(v, i, fi)
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
