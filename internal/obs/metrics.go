package obs

import (
	"math"
	"sort"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing count with an atomic hot-path
// increment, the GPTL-style event counter of the observability layer.
type Counter struct {
	v atomic.Int64
}

// Add increments the counter by n.
func (c *Counter) Add(n int64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Gauge is a last-value metric stored as atomic float64 bits.
type Gauge struct {
	bits atomic.Uint64
}

// Set stores v as the gauge's current value.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Value returns the gauge's current value.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

// DefaultBounds are the histogram bucket upper bounds used when none are
// given: exponential decades spanning microseconds to tens of seconds, which
// covers both tile times and whole-component walls.
var DefaultBounds = []float64{1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 1e-1, 1, 10}

// Histogram is a fixed-bucket distribution with atomic observation counts;
// tile-imbalance and message-size distributions land here.
type Histogram struct {
	bounds  []float64      // ascending upper bounds; implicit +Inf bucket last
	counts  []atomic.Int64 // len(bounds)+1
	sumBits atomic.Uint64  // float64 bits of the running sum, CAS-updated
	n       atomic.Int64
}

// NewHistogram builds a histogram over the given ascending bucket upper
// bounds; with no bounds it uses DefaultBounds.
func NewHistogram(bounds ...float64) *Histogram {
	if len(bounds) == 0 {
		bounds = DefaultBounds
	}
	b := append([]float64(nil), bounds...)
	sort.Float64s(b)
	return &Histogram{bounds: b, counts: make([]atomic.Int64, len(b)+1)}
}

// Observe records one sample.
func (h *Histogram) Observe(v float64) {
	i := sort.SearchFloat64s(h.bounds, v)
	h.counts[i].Add(1)
	h.n.Add(1)
	for {
		old := h.sumBits.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sumBits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 { return h.n.Load() }

// Sum returns the sum of all observed values.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sumBits.Load()) }

// Buckets returns the bucket upper bounds and the cumulative count at or
// below each bound, Prometheus-style; the final entry is the +Inf bucket.
func (h *Histogram) Buckets() (bounds []float64, cumulative []int64) {
	bounds = append([]float64(nil), h.bounds...)
	bounds = append(bounds, math.Inf(1))
	cumulative = make([]int64, len(h.counts))
	var acc int64
	for i := range h.counts {
		acc += h.counts[i].Load()
		cumulative[i] = acc
	}
	return bounds, cumulative
}

// Kind classifies a metric point.
type Kind uint8

// Metric kinds.
const (
	KindCounter Kind = iota
	KindGauge
	KindHistogram
	KindSection
)

// String implements fmt.Stringer.
func (k Kind) String() string {
	switch k {
	case KindCounter:
		return "counter"
	case KindGauge:
		return "gauge"
	case KindHistogram:
		return "histogram"
	case KindSection:
		return "section"
	default:
		return "unknown"
	}
}

// Point is one metric's local value, the unit of snapshots and of the
// cross-rank reduction. For sections Value is accumulated wall seconds and
// Count the call count; for histograms Value is the sample sum and Count the
// sample count.
type Point struct {
	Name  string
	Kind  Kind
	Value float64
	Count int64
}

// Registry is a name-indexed collection of counters, gauges, and histograms.
// Get-or-create lookups take a lock; the returned metric handles are
// lock-free on the hot path.
type Registry struct {
	mu       sync.RWMutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: make(map[string]*Counter),
		gauges:   make(map[string]*Gauge),
		hists:    make(map[string]*Histogram),
	}
}

// Counter returns the named counter, creating it on first use.
func (r *Registry) Counter(name string) *Counter {
	r.mu.RLock()
	c, ok := r.counters[name]
	r.mu.RUnlock()
	if ok {
		return c
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if c, ok = r.counters[name]; ok {
		return c
	}
	c = &Counter{}
	r.counters[name] = c
	return c
}

// Gauge returns the named gauge, creating it on first use.
func (r *Registry) Gauge(name string) *Gauge {
	r.mu.RLock()
	g, ok := r.gauges[name]
	r.mu.RUnlock()
	if ok {
		return g
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if g, ok = r.gauges[name]; ok {
		return g
	}
	g = &Gauge{}
	r.gauges[name] = g
	return g
}

// Histogram returns the named histogram, creating it with the given bounds
// (or DefaultBounds) on first use. Later calls ignore the bounds.
func (r *Registry) Histogram(name string, bounds ...float64) *Histogram {
	r.mu.RLock()
	h, ok := r.hists[name]
	r.mu.RUnlock()
	if ok {
		return h
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if h, ok = r.hists[name]; ok {
		return h
	}
	h = NewHistogram(bounds...)
	r.hists[name] = h
	return h
}

// Snapshot returns every registered metric as a Point, sorted by name
// within kind order (counters, gauges, histograms).
func (r *Registry) Snapshot() []Point {
	r.mu.RLock()
	defer r.mu.RUnlock()
	pts := make([]Point, 0, len(r.counters)+len(r.gauges)+len(r.hists))
	for n, c := range r.counters {
		v := c.Value()
		pts = append(pts, Point{Name: n, Kind: KindCounter, Value: float64(v), Count: v})
	}
	for n, g := range r.gauges {
		pts = append(pts, Point{Name: n, Kind: KindGauge, Value: g.Value()})
	}
	for n, h := range r.hists {
		pts = append(pts, Point{Name: n, Kind: KindHistogram, Value: h.Sum(), Count: h.Count()})
	}
	sort.Slice(pts, func(i, j int) bool {
		if pts[i].Kind != pts[j].Kind {
			return pts[i].Kind < pts[j].Kind
		}
		return pts[i].Name < pts[j].Name
	})
	return pts
}
