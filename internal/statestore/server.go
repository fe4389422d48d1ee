package statestore

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"net/url"
	"strconv"
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

// Handler returns the query mux — exposed so tests and embedders can drive
// the endpoints without a real listener.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/meta", s.instrument("meta", s.handleMeta))
	mux.HandleFunc("/v1/point", s.instrument("point", s.handlePoint))
	mux.HandleFunc("/v1/region", s.instrument("region", s.handleRegion))
	mux.HandleFunc("/v1/analogs", s.instrument("analogs", s.handleAnalogs))
	mux.HandleFunc("/v1/diag", s.instrument("diag", s.handleDiag))
	return mux
}

// instrument wraps a handler with the serve.* request/error/latency
// telemetry. The raw query is parsed once here; handlers get the values and
// the request's context, which the store's scans honour.
func (s *Server) instrument(name string, h func(context.Context, url.Values) (any, error)) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		t0 := time.Now()
		count(s.obs, "serve.http.requests", 1)
		v, err := h(r.Context(), r.URL.Query())
		if err != nil {
			count(s.obs, "serve.http.errors", 1)
			http.Error(w, err.Error(), errorStatus(err))
			return
		}
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(v)
		observe(s.obs, "serve.http.latency_us", float64(time.Since(t0).Microseconds()))
	}
}

// errorStatus tells the store's faults from the client's: a corrupt,
// truncated or closed store is a 500, a request its client abandoned a 503,
// and everything else is a parameter the store rejected.
func errorStatus(err error) int {
	switch {
	case errors.Is(err, ErrCorrupt), errors.Is(err, ErrTruncated), errors.Is(err, ErrClosed):
		return http.StatusInternalServerError
	case errors.Is(err, context.Canceled), errors.Is(err, context.DeadlineExceeded):
		return http.StatusServiceUnavailable
	}
	return http.StatusBadRequest
}

// intParam parses an integer query parameter, def when absent.
func intParam(q url.Values, name string, def int) (int, error) {
	raw := q.Get(name)
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

func (s *Server) handleMeta(context.Context, url.Values) (any, error) {
	// Meta doubles as the liveness probe of a live-ingesting store: refresh
	// first so the reply reflects the newest committed snapshot.
	if err := s.st.Refresh(); err != nil {
		return nil, err
	}
	rep := metaReply{Snapshots: s.st.Snapshots(), Group: s.st.Group(), Fields: s.st.Fields()}
	if rep.Snapshots > 0 {
		rep.FirstStep, _, _ = s.st.Meta(0)
		rep.LastStep, _, _ = s.st.Meta(rep.Snapshots - 1)
	}
	return rep, nil
}

func (s *Server) handlePoint(ctx context.Context, q url.Values) (any, error) {
	field := q.Get("field")
	cell, err := intParam(q, "cell", -1)
	if err != nil {
		return nil, err
	}
	if field == "" || cell < 0 {
		return nil, fmt.Errorf("statestore: /v1/point needs field= and cell=")
	}
	if snap, err := intParam(q, "snap", -1); err != nil {
		return nil, err
	} else if snap >= 0 {
		v, err := s.st.Point(snap, field, cell)
		if err != nil {
			return nil, err
		}
		step, sim, err := s.st.Meta(snap)
		if err != nil {
			return nil, err
		}
		return Sample{Snap: snap, Step: step, SimTime: sim, Value: v}, nil
	}
	return s.st.pointSeries(ctx, field, cell)
}

func (s *Server) handleRegion(ctx context.Context, q url.Values) (any, error) {
	field := q.Get("field")
	lo, err := intParam(q, "lo", -1)
	if err != nil {
		return nil, err
	}
	hi, err := intParam(q, "hi", -1)
	if err != nil {
		return nil, err
	}
	if field == "" || lo < 0 || hi < 0 {
		return nil, fmt.Errorf("statestore: /v1/region needs field=, lo= and hi=")
	}
	return s.st.regionSeries(ctx, field, lo, hi)
}

func (s *Server) handleAnalogs(ctx context.Context, q url.Values) (any, error) {
	field := q.Get("field")
	snap, err := intParam(q, "snap", -1)
	if err != nil {
		return nil, err
	}
	k, err := intParam(q, "k", 5)
	if err != nil {
		return nil, err
	}
	workers, err := intParam(q, "workers", 0)
	if err != nil {
		return nil, err
	}
	if field == "" || snap < 0 {
		return nil, fmt.Errorf("statestore: /v1/analogs needs field= and snap= (the query snapshot)")
	}
	query, err := s.st.DecodeField(snap, field)
	if err != nil {
		return nil, err
	}
	return s.st.nearestAnalogs(ctx, field, query, k, workers)
}

func (s *Server) handleDiag(ctx context.Context, q url.Values) (any, error) {
	snap, err := intParam(q, "snap", -1)
	if err != nil {
		return nil, err
	}
	if snap >= 0 {
		return s.st.Diagnostics(snap)
	}
	// No snap: the whole diagnostic series (min-Ps / max-wind trajectory).
	return s.st.diagSeries(ctx)
}
