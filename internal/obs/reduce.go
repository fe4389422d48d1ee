package obs

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/par"
)

// ReducedPoint is one metric reduced across the ranks of a communicator.
// Max preserves the paper's §6.2 convention (the slowest rank sets the
// wall); Sum aggregates traffic-style counters.
type ReducedPoint struct {
	Name     string
	Kind     Kind
	Max      float64
	Sum      float64
	MaxCount int64
	SumCount int64
}

// Reduce reduces each rank's metric points across the communicator,
// returning, for every metric name seen on any rank, the max and sum of its
// value and count. Collective: every rank must call it with its local
// points; all ranks receive the same rows, sorted by (kind, name).
//
// Ranks need not have identical metric sets — the union is gathered first
// (a rank missing a metric contributes zero), exactly as the timing report
// handles sections that only some ranks execute.
func Reduce(c *par.Comm, pts []Point) []ReducedPoint {
	local := make(map[string]Point, len(pts))
	keys := make([]string, 0, len(pts))
	for _, p := range pts {
		k := pointKey(p.Kind, p.Name)
		if _, dup := local[k]; !dup {
			keys = append(keys, k)
		}
		local[k] = p
	}

	// Union of keys across ranks, identically ordered everywhere.
	union := map[string]bool{}
	for _, list := range par.Allgather(c, keys) {
		for _, k := range list {
			union[k] = true
		}
	}
	all := make([]string, 0, len(union))
	for k := range union {
		all = append(all, k)
	}
	sort.Strings(all)

	vals := make([]float64, len(all))
	counts := make([]float64, len(all))
	for i, k := range all {
		p := local[k] // zero Point when this rank never touched the metric
		vals[i] = p.Value
		counts[i] = float64(p.Count)
	}
	maxVals := c.AllreduceSlice(vals, par.OpMax)
	sumVals := c.AllreduceSlice(vals, par.OpSum)
	maxCounts := c.AllreduceSlice(counts, par.OpMax)
	sumCounts := c.AllreduceSlice(counts, par.OpSum)

	out := make([]ReducedPoint, len(all))
	for i, k := range all {
		kind, name := splitPointKey(k)
		out[i] = ReducedPoint{
			Name:     name,
			Kind:     kind,
			Max:      maxVals[i],
			Sum:      sumVals[i],
			MaxCount: int64(maxCounts[i]),
			SumCount: int64(sumCounts[i]),
		}
	}
	return out
}

// pointKey orders points by kind then name with an unambiguous separator.
func pointKey(k Kind, name string) string { return fmt.Sprintf("%d\x00%s", k, name) }

func splitPointKey(key string) (Kind, string) {
	i := strings.IndexByte(key, 0)
	return Kind(key[0] - '0'), key[i+1:]
}
