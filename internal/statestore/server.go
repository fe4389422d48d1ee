package statestore

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"sync"
	"time"
)

// Server is the HTTP query front end over a Store. Every handler is a thin
// JSON shim over the concurrent query API; the heavy lifting (verified
// blobs, quantized-domain kernels, analog search) lives in Store, so
// programmatic consumers can skip HTTP entirely. The server carries a
// ReadHeaderTimeout (slow clients must not pin handler goroutines) and Close
// joins the serve goroutine, so a stopped server leaves no listener or
// goroutine behind.
type Server struct {
	st   *Store
	obs  Observer
	ln   net.Listener
	srv  *http.Server
	done chan struct{}
}

// readHeaderTimeout bounds how long a connection may dribble its request
// header — the slowloris guard.
const readHeaderTimeout = 5 * time.Second

// NewServer starts serving st on addr (port 0 picks a free port; Addr
// reports the bound address). o may be nil.
func NewServer(st *Store, addr string, o Observer) (*Server, error) {
	s := &Server{st: st, obs: o, done: make(chan struct{})}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("statestore: serve listen: %w", err)
	}
	s.ln = ln
	s.srv = &http.Server{Handler: s.Handler(), ReadHeaderTimeout: readHeaderTimeout}
	go func() {
		s.srv.Serve(ln)
		close(s.done)
	}()
	return s, nil
}

// Addr returns the listening address.
func (s *Server) Addr() string { return s.ln.Addr().String() }

// Close shuts the listener down and waits for the serve goroutine to exit.
func (s *Server) Close() error {
	err := s.srv.Close()
	<-s.done
	return err
}

// Handler returns the query endpoints — exposed so tests and embedders can
// drive them without a real listener. A path that is not one of them is a
// 404.
func (s *Server) Handler() http.Handler {
	routes := map[string]http.HandlerFunc{}
	for endpoint, h := range map[string]func(context.Context, params, *reply) error{
		"meta": s.handleMeta, "point": s.handlePoint, "region": s.handleRegion,
		"analogs": s.handleAnalogs, "diag": s.handleDiag,
	} {
		routes["/v1/"+endpoint] = s.instrument(endpoint, h)
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if h, ok := routes[r.URL.Path]; ok {
			h(w, r)
			return
		}
		http.NotFound(w, r)
	})
}

// replies recycles reply buffers across requests; one grown past
// maxPooledReply is left to the collector rather than kept.
var replies = sync.Pool{New: func() any { return new(reply) }}

const maxPooledReply = 1 << 20

// jsonContentType is every reply's Content-Type header value, shared and
// never mutated.
var jsonContentType = []string{"application/json"}

// instrument wraps a handler with the serve.* request/error telemetry and
// the endpoint's latency histogram. Handlers get the raw query and the
// request's context, which the store's scans honour, and append their JSON
// reply.
func (s *Server) instrument(endpoint string, h func(context.Context, params, *reply) error) http.HandlerFunc {
	latency := `serve.http.latency_us{endpoint="` + endpoint + `"}`
	return func(w http.ResponseWriter, r *http.Request) {
		t0 := time.Now()
		count(s.obs, "serve.http.requests", 1)
		rep := replies.Get().(*reply)
		rep.b, rep.err = rep.b[:0], nil
		defer func() {
			if cap(rep.b) <= maxPooledReply {
				replies.Put(rep)
			}
		}()
		err := h(r.Context(), params(r.URL.RawQuery), rep)
		if err == nil {
			err = rep.err
		}
		if err != nil {
			count(s.obs, "serve.http.errors", 1)
			http.Error(w, err.Error(), errorStatus(err))
			return
		}
		w.Header()["Content-Type"] = jsonContentType
		rep.b = append(rep.b, '\n')
		w.Write(rep.b)
		observe(s.obs, latency, float64(time.Since(t0).Microseconds()))
	}
}

// errorStatus tells the store's faults from the client's: a corrupt,
// truncated or closed store, or a reply JSON cannot carry, is a 500, a
// request its client abandoned a 503, and everything else is a parameter the
// store rejected.
func errorStatus(err error) int {
	switch {
	case errors.Is(err, ErrCorrupt), errors.Is(err, ErrTruncated), errors.Is(err, ErrClosed), errors.Is(err, errNonFinite):
		return http.StatusInternalServerError
	case errors.Is(err, context.Canceled), errors.Is(err, context.DeadlineExceeded):
		return http.StatusServiceUnavailable
	}
	return http.StatusBadRequest
}

// params is a request's raw query. get finds a parameter the way
// url.Values.Get does on the parsed query — the first well-formed pair named
// name, pairs holding a semicolon or a bad escape skipped — without building
// the map. name must need no escaping, so a key without escapes matches only
// if it is name itself.
type params string

func (p params) get(name string) string {
	for q := string(p); q != ""; {
		var pair string
		pair, q, _ = strings.Cut(q, "&")
		key, value, _ := strings.Cut(pair, "=")
		if key != name {
			if !strings.ContainsAny(key, "%+") {
				continue
			}
			if k, err := url.QueryUnescape(key); err != nil || k != name {
				continue
			}
		}
		if strings.Contains(pair, ";") {
			continue
		}
		if v, err := url.QueryUnescape(value); err == nil {
			return v
		}
	}
	return ""
}

// intParam parses an integer query parameter, def when absent.
func intParam(p params, name string, def int) (int, error) {
	raw := p.get(name)
	if raw == "" {
		return def, nil
	}
	v, err := strconv.Atoi(raw)
	if err != nil {
		return 0, fmt.Errorf("statestore: parameter %s=%q is not an integer", name, raw)
	}
	return v, nil
}

// metaReply is the /v1/meta response.
type metaReply struct {
	Snapshots int         `json:"snapshots"`
	Group     int         `json:"group"`
	Fields    []FieldInfo `json:"fields"`
	FirstStep int         `json:"first_step"`
	LastStep  int         `json:"last_step"`
}

func (s *Server) handleMeta(_ context.Context, _ params, r *reply) error {
	// Meta doubles as the liveness probe of a live-ingesting store: refresh
	// first so the reply reflects the newest committed snapshot.
	if err := s.st.Refresh(); err != nil {
		return err
	}
	m := s.st.v.Load().man
	rep := metaReply{Snapshots: len(m.Snaps), Group: m.Group, Fields: m.Fields}
	if n := len(m.Snaps); n > 0 {
		rep.FirstStep, rep.LastStep = int(m.Snaps[0].Step), int(m.Snaps[n-1].Step)
	}
	rep.appendJSON(r)
	return nil
}

func (s *Server) handlePoint(ctx context.Context, p params, r *reply) error {
	field := p.get("field")
	cell, err := intParam(p, "cell", -1)
	if err != nil {
		return err
	}
	if field == "" || cell < 0 {
		return fmt.Errorf("statestore: /v1/point needs field= and cell=")
	}
	if snap, err := intParam(p, "snap", -1); err != nil {
		return err
	} else if snap >= 0 {
		v, err := s.st.Point(snap, field, cell)
		if err != nil {
			return err
		}
		step, sim, err := s.st.Meta(snap)
		if err != nil {
			return err
		}
		Sample{Snap: snap, Step: step, SimTime: sim, Value: v}.appendJSON(r)
		return nil
	}
	series, err := s.st.pointSeries(ctx, field, cell)
	if err != nil {
		return err
	}
	list(r, series)
	return nil
}

func (s *Server) handleRegion(ctx context.Context, p params, r *reply) error {
	field := p.get("field")
	lo, err := intParam(p, "lo", -1)
	if err != nil {
		return err
	}
	hi, err := intParam(p, "hi", -1)
	if err != nil {
		return err
	}
	if field == "" || lo < 0 || hi < 0 {
		return fmt.Errorf("statestore: /v1/region needs field=, lo= and hi=")
	}
	series, err := s.st.regionSeries(ctx, field, lo, hi)
	if err != nil {
		return err
	}
	list(r, series)
	return nil
}

func (s *Server) handleAnalogs(ctx context.Context, p params, r *reply) error {
	field := p.get("field")
	snap, err := intParam(p, "snap", -1)
	if err != nil {
		return err
	}
	k, err := intParam(p, "k", 5)
	if err != nil {
		return err
	}
	workers, err := intParam(p, "workers", 0)
	if err != nil {
		return err
	}
	if field == "" || snap < 0 {
		return fmt.Errorf("statestore: /v1/analogs needs field= and snap= (the query snapshot)")
	}
	query, err := s.st.DecodeField(snap, field)
	if err != nil {
		return err
	}
	analogs, err := s.st.nearestAnalogs(ctx, field, query, k, workers)
	if err != nil {
		return err
	}
	list(r, analogs)
	return nil
}

func (s *Server) handleDiag(ctx context.Context, p params, r *reply) error {
	snap, err := intParam(p, "snap", -1)
	if err != nil {
		return err
	}
	if snap >= 0 {
		d, err := s.st.Diagnostics(snap)
		if err != nil {
			return err
		}
		d.appendJSON(r)
		return nil
	}
	// No snap: the whole diagnostic series (min-Ps / max-wind trajectory).
	series, err := s.st.diagSeries(ctx)
	if err != nil {
		return err
	}
	list(r, series)
	return nil
}
