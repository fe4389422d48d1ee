package main

import (
	"math"
	"sort"
	"time"
)

// percentile returns the p-quantile (0 ≤ p ≤ 1) of xs by linear
// interpolation between order statistics; xs need not be sorted and is not
// modified. An empty sample gives 0.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := p * float64(len(s)-1)
	lo := int(math.Floor(pos))
	if lo >= len(s)-1 {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

func median(xs []float64) float64 { return percentile(xs, 0.5) }

// quartiles returns the three cut points Python's
// statistics.quantiles(xs, n=4) gives (its default, exclusive method), the
// convention the benchmark's spread is judged by. It needs two values.
func quartiles(xs []float64) [3]float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	var q [3]float64
	n := len(s)
	for i := 1; i <= 3; i++ {
		j := min(max(i*(n+1)/4, 1), n-1)
		delta := float64(i*(n+1) - j*4)
		q[i-1] = (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return q
}

// pooledOpsPerSec is the throughput of the pooled laps: ops completed over
// the time spent inside ops, so harness work between ops does not count.
func pooledOpsPerSec(opMs []float64) float64 {
	total := 0.0
	for _, v := range opMs {
		total += v
	}
	if total == 0 {
		return 0
	}
	return float64(len(opMs)) / (total / 1e3)
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
func us(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }

// timeCalls returns the median duration of n calls of f after one untimed
// warm-up call.
func timeCalls(n int, f func()) time.Duration {
	f()
	ds := make([]float64, n)
	for i := range ds {
		t0 := time.Now()
		f()
		ds[i] = float64(time.Since(t0))
	}
	return time.Duration(median(ds))
}

// timeBatched is timeCalls for calls too short for the clock: each sample
// times batch back-to-back calls and the result is per call, in nanoseconds.
func timeBatched(n, batch int, f func()) float64 {
	d := timeCalls(n, func() {
		for i := 0; i < batch; i++ {
			f()
		}
	})
	return float64(d) / float64(batch)
}
