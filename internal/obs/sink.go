package obs

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"os"
	"sort"
	"strings"
	"sync"
	"time"
)

// Event is one observability record: a closed span on a rank's timeline or
// a flushed metric value. Span events carry Path/StartNs/DurNs; metric
// events carry Value/Count.
type Event struct {
	Kind    string  `json:"kind"`
	Rank    int     `json:"rank"`
	Name    string  `json:"name"`
	Path    string  `json:"path,omitempty"`
	StartNs int64   `json:"start_ns,omitempty"`
	DurNs   int64   `json:"dur_ns,omitempty"`
	Value   float64 `json:"value,omitempty"`
	Count   int64   `json:"count,omitempty"`
}

// Sink receives events from every rank's Obs. Implementations must be safe
// for concurrent Emit from all ranks.
type Sink interface {
	// Attach registers a rank's observer so pull-style sinks (Prometheus)
	// can snapshot it on demand.
	Attach(o *Obs)
	// Emit records one event.
	Emit(e Event)
	// Flush forces buffered output to its destination.
	Flush() error
	// Close flushes and releases the sink.
	Close() error
}

// OpenSink builds a sink from a command-line spec:
//
//	off (or "")  -> nil sink: accumulate in memory, emit nothing
//	mem          -> in-memory sink (tests, programmatic inspection)
//	jsonl:PATH   -> JSONL event log appended to PATH
//	prom:ADDR    -> Prometheus text exposition served at http://ADDR/metrics
func OpenSink(spec string) (Sink, error) {
	switch {
	case spec == "" || spec == "off":
		return nil, nil
	case spec == "mem":
		return NewMemorySink(), nil
	case strings.HasPrefix(spec, "jsonl:"):
		return NewJSONLSink(strings.TrimPrefix(spec, "jsonl:"))
	case strings.HasPrefix(spec, "prom:"):
		return NewPromSink(strings.TrimPrefix(spec, "prom:"))
	default:
		return nil, fmt.Errorf("obs: unknown sink spec %q (want off, mem, jsonl:PATH, prom:ADDR)", spec)
	}
}

// MemorySink buffers events in memory — the test sink.
type MemorySink struct {
	mu     sync.Mutex
	events []Event
	obs    []*Obs
}

// NewMemorySink returns an empty in-memory sink.
func NewMemorySink() *MemorySink { return &MemorySink{} }

// Attach implements Sink.
func (m *MemorySink) Attach(o *Obs) {
	m.mu.Lock()
	m.obs = append(m.obs, o)
	m.mu.Unlock()
}

// Emit implements Sink.
func (m *MemorySink) Emit(e Event) {
	m.mu.Lock()
	m.events = append(m.events, e)
	m.mu.Unlock()
}

// Flush implements Sink.
func (m *MemorySink) Flush() error { return nil }

// Close implements Sink.
func (m *MemorySink) Close() error { return nil }

// JSONLSink appends one JSON object per event to a file — the event-log
// sink a post-processing tool (or test) replays into timelines.
type JSONLSink struct {
	mu sync.Mutex
	f  *os.File
	w  *bufio.Writer
}

// NewJSONLSink creates (truncating) the log file at path.
func NewJSONLSink(path string) (*JSONLSink, error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, fmt.Errorf("obs: %w", err)
	}
	return &JSONLSink{f: f, w: bufio.NewWriter(f)}, nil
}

// Attach implements Sink.
func (s *JSONLSink) Attach(*Obs) {}

// Emit implements Sink.
func (s *JSONLSink) Emit(e Event) {
	b, err := json.Marshal(e)
	if err != nil {
		return
	}
	s.mu.Lock()
	s.w.Write(b)
	s.w.WriteByte('\n')
	s.mu.Unlock()
}

// Flush implements Sink.
func (s *JSONLSink) Flush() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.w.Flush()
}

// Close implements Sink.
func (s *JSONLSink) Close() error {
	if err := s.Flush(); err != nil {
		s.f.Close()
		return err
	}
	return s.f.Close()
}

// PromSink exposes the attached observers' registries in Prometheus text
// exposition format. Metrics are pulled (rendered on demand from live
// snapshots), so Emit is a no-op; an optional HTTP server answers
// GET /metrics.
type PromSink struct {
	mu   sync.Mutex
	obs  []*Obs
	ln   net.Listener
	srv  *http.Server
	done chan struct{} // closed when the serve goroutine exits
}

// NewPromSink starts an HTTP server on addr serving /metrics. addr may use
// port 0 to pick a free port; Addr reports the bound address.
func NewPromSink(addr string) (*PromSink, error) {
	p := &PromSink{}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("obs: prom listen: %w", err)
	}
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4")
		p.Render(w)
	})
	p.ln = ln
	// ReadHeaderTimeout bounds how long a connection may dribble its request
	// headers — without it a slowloris peer pins goroutines and fds forever.
	p.srv = &http.Server{Handler: mux, ReadHeaderTimeout: 5 * time.Second}
	p.done = make(chan struct{})
	go func() {
		defer close(p.done)
		p.srv.Serve(ln)
	}()
	return p, nil
}

// Addr returns the served address ("" for render-only sinks).
func (p *PromSink) Addr() string {
	if p.ln == nil {
		return ""
	}
	return p.ln.Addr().String()
}

// Attach implements Sink.
func (p *PromSink) Attach(o *Obs) {
	p.mu.Lock()
	p.obs = append(p.obs, o)
	p.mu.Unlock()
}

// Emit implements Sink: Prometheus metrics are pulled, not pushed.
func (p *PromSink) Emit(Event) {}

// Flush implements Sink.
func (p *PromSink) Flush() error { return nil }

// Close implements Sink. It shuts the HTTP server down and joins the serve
// goroutine, so when Close returns the listener is released and the port is
// immediately re-bindable.
func (p *PromSink) Close() error {
	if p.srv == nil {
		return nil
	}
	err := p.srv.Close()
	<-p.done
	return err
}

// promName sanitizes a metric name into the Prometheus charset under the
// ap3esm_ namespace: "par.send.bytes" -> "ap3esm_par_send_bytes". Labeled
// names must be split with SplitLabels first; promName only sees base names.
func promName(name string) string {
	var b strings.Builder
	b.WriteString("ap3esm_")
	for _, r := range name {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9', r == '_':
			b.WriteRune(r)
		default:
			b.WriteByte('_')
		}
	}
	return b.String()
}

// Render writes the text exposition of every attached observer, one series
// per rank via a rank label. Sections render as _seconds and _calls pairs;
// histograms render the standard _bucket/_sum/_count triplet.
func (p *PromSink) Render(w io.Writer) {
	p.mu.Lock()
	obsList := append([]*Obs(nil), p.obs...)
	p.mu.Unlock()
	sort.Slice(obsList, func(i, j int) bool { return obsList[i].rank < obsList[j].rank })

	typed := make(map[string]bool)
	writeType := func(name, kind string) {
		if !typed[name] {
			fmt.Fprintf(w, "# TYPE %s %s\n", name, kind)
			typed[name] = true
		}
	}
	for _, o := range obsList {
		for _, name := range o.SectionNames() {
			d, calls := o.Section(name)
			sn := promName("section." + name)
			writeType(sn+"_seconds", "counter")
			fmt.Fprintf(w, "%s_seconds{rank=\"%d\"} %g\n", sn, o.rank, d.Seconds())
			writeType(sn+"_calls", "counter")
			fmt.Fprintf(w, "%s_calls{rank=\"%d\"} %d\n", sn, o.rank, calls)
		}
		reg := o.Registry()
		reg.mu.RLock()
		counters := sortedKeys(reg.counters)
		gauges := sortedKeys(reg.gauges)
		hists := sortedKeys(reg.hists)
		reg.mu.RUnlock()
		for _, n := range counters {
			pn, extra := promSeries(n)
			writeType(pn, "counter")
			fmt.Fprintf(w, "%s{%srank=\"%d\"} %d\n", pn, extra, o.rank, reg.Counter(n).Value())
		}
		for _, n := range gauges {
			pn, extra := promSeries(n)
			writeType(pn, "gauge")
			fmt.Fprintf(w, "%s{%srank=\"%d\"} %g\n", pn, extra, o.rank, reg.Gauge(n).Value())
		}
		for _, n := range hists {
			h := reg.Histogram(n)
			pn := promName(n)
			writeType(pn, "histogram")
			bounds, cum := h.Buckets()
			for i, ub := range bounds {
				le := "+Inf"
				if !math.IsInf(ub, 1) {
					le = fmt.Sprintf("%g", ub)
				}
				fmt.Fprintf(w, "%s_bucket{rank=\"%d\",le=\"%s\"} %d\n", pn, o.rank, le, cum[i])
			}
			fmt.Fprintf(w, "%s_sum{rank=\"%d\"} %g\n", pn, o.rank, h.Sum())
			fmt.Fprintf(w, "%s_count{rank=\"%d\"} %d\n", pn, o.rank, h.Count())
		}
	}
}

// promSeries splits a (possibly labeled) registry name into the sanitized
// Prometheus family name and a label prefix ready to splice before the rank
// label: `cpl.halo.msgs{component="ocn"}` becomes
// ("ap3esm_cpl_halo_msgs", `component="ocn",`).
func promSeries(name string) (pn, labelPrefix string) {
	base, labels := SplitLabels(name)
	if labels != "" {
		labels += ","
	}
	return promName(base), labels
}

// sortedKeys returns a map's keys in sorted order.
func sortedKeys[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
