package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/url"
	"os"
	"strconv"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/par"
	"repro/internal/pp"
	"repro/internal/precision"
	"repro/internal/statestore"
)

// serveSpec is the serve_mix lap shape. A session is one op: one client
// refreshing its view and pulling a dashboard's worth of queries. A lap with
// no timed sessions is a set-up sample: it ends with the first warm-up
// session.
type serveSpec struct {
	initial     int // snapshots in the store when the timed window opens
	warm        int // untimed warm-up sessions, part of set-up
	sessions    int // timed sessions per lap
	appendEvery int // every appendEvery-th session first appends one snapshot
}

func (s serveSpec) snapshots() int { return s.initial + s.sessions/s.appendEvery }

// Session mix. Point lookups dominate by count, region and analog queries
// by time; see README.md for the measured shares.
const (
	nPoint   = 128
	nSeries  = 8
	nRegion  = 8
	nAnalogs = 8
	nDiag    = 16
	regionW  = 96
	analogK  = 5
	sampleIn = 16 // one session in sampleIn is re-checked against the references
)

type queryKind uint8

const (
	qMeta queryKind = iota
	qPoint
	qSeries
	qRegion
	qAnalogs
	qDiag
)

// A session's parts are its query classes in kind order, each class's
// requests timed as one block, and last the append that every
// appendEvery-th session starts with, at 1/appendEvery of its time.
const servePartAppend = int(qDiag) + 1

var kindSpan = [...]string{"http.meta", "http.point", "http.pointseries", "http.region", "http.analogs", "http.diag"}

// query is one generated request; field, snap and cell are kept so a sampled
// reply can be checked against the reference decode.
type query struct {
	kind       queryKind
	path, raw  string
	field      int
	snap, cell int
}

var serveFields = [...]string{statestore.PsField, statestore.WindField, statestore.SSTField, statestore.IceField}

// serveInput is the archive the serve workload reads: snapshots captured
// from a model run, and for each the values the store must give back.
type serveInput struct {
	snaps []statestore.Snapshot
	ref   [][][]float64 // [snap][serveFields index] group-scaled round trip
}

// captureServeInput steps a 1-rank model n times and captures the serving
// field set after every step. Untimed: it is the workload's input.
func captureServeInput(n int) (*serveInput, error) {
	cfg, err := core.ConfigForLabel(modelConfig)
	if err != nil {
		return nil, err
	}
	in := &serveInput{}
	par.Run(1, func(c *par.Comm) {
		var e *core.ESM
		e, err = core.NewWithOptions(cfg, c,
			core.WithInterval(modelStart, modelStart.Add(240*time.Hour)),
			core.WithSpace(pp.Serial{}), core.WithRemap(core.RemapCons),
			core.WithAudit(true), core.WithObserver(obs.Nop{}))
		if err != nil {
			return
		}
		for i := 0; i < n; i++ {
			e.Step()
			snap, _ := e.CaptureServeSnapshot()
			in.snaps = append(in.snaps, snap)
		}
	})
	if err != nil {
		return nil, err
	}
	for _, s := range in.snaps {
		row := make([][]float64, len(serveFields))
		for fi, name := range serveFields {
			for _, f := range s.Fields {
				if f.Name != name {
					continue
				}
				gs, err := precision.EncodeGroupScaled(f.Data, statestore.DefaultGroup)
				if err != nil {
					return nil, err
				}
				row[fi] = gs.Decode(nil)
			}
		}
		in.ref = append(in.ref, row)
	}
	return in, nil
}

// sessionQueries draws one session's requests. nsnap is the number of
// snapshots the store holds when the session runs, so every query names a
// snapshot that exists and no request fails.
func sessionQueries(rng *rand.Rand, in *serveInput, nsnap int, qs []query) []query {
	qs = append(qs[:0], query{kind: qMeta, path: "/v1/meta"})
	add := func(k queryKind, path string, field, snap, cell int, raw []byte) {
		qs = append(qs, query{kind: k, path: path, raw: string(raw), field: field, snap: snap, cell: cell})
	}
	fieldArg := func(fi int) []byte {
		return append([]byte("field="), url.QueryEscape(serveFields[fi])...)
	}
	num := func(b []byte, key string, v int) []byte {
		return strconv.AppendInt(append(append(b, '&'), key...), int64(v), 10)
	}
	for i := 0; i < nPoint; i++ {
		fi, snap := rng.Intn(len(serveFields)), rng.Intn(nsnap)
		cell := rng.Intn(len(in.ref[0][fi]))
		add(qPoint, "/v1/point", fi, snap, cell, num(num(fieldArg(fi), "cell=", cell), "snap=", snap))
	}
	for i := 0; i < nSeries; i++ {
		fi := rng.Intn(len(serveFields))
		cell := rng.Intn(len(in.ref[0][fi]))
		add(qSeries, "/v1/point", fi, -1, cell, num(fieldArg(fi), "cell=", cell))
	}
	for i := 0; i < nRegion; i++ {
		fi := rng.Intn(len(serveFields))
		lo := rng.Intn(len(in.ref[0][fi]) - regionW)
		add(qRegion, "/v1/region", fi, -1, lo, num(num(fieldArg(fi), "lo=", lo), "hi=", lo+regionW))
	}
	for i := 0; i < nAnalogs; i++ {
		fi, snap := 2*(i%2), rng.Intn(nsnap) // alternate atm.ps and ocn.sst
		add(qAnalogs, "/v1/analogs", fi, snap, -1, num(num(num(fieldArg(fi), "snap=", snap), "k=", analogK), "workers=", 2))
	}
	for i := 0; i < nDiag; i++ {
		snap := rng.Intn(nsnap)
		add(qDiag, "/v1/diag", -1, snap, -1, strconv.AppendInt([]byte("snap="), int64(snap), 10))
	}
	return qs
}

// respWriter is a reusable in-memory http.ResponseWriter: the handler runs
// on the caller's goroutine and no socket is involved.
type respWriter struct {
	hdr  http.Header
	code int
	body bytes.Buffer
}

func (w *respWriter) Header() http.Header         { return w.hdr }
func (w *respWriter) WriteHeader(code int)        { w.code = code }
func (w *respWriter) Write(b []byte) (int, error) { return w.body.Write(b) }

// client drives a handler in-process.
type client struct {
	h   http.Handler
	req http.Request
	u   url.URL
	w   respWriter
}

func newClient(h http.Handler) *client {
	c := &client{h: h}
	c.req = http.Request{Method: http.MethodGet, URL: &c.u, Proto: "HTTP/1.1", ProtoMajor: 1, ProtoMinor: 1, Host: "bench"}
	c.w.hdr = http.Header{}
	return c
}

// get serves one query and reports whether the reply was 200.
func (c *client) get(q *query) bool {
	c.u.Path, c.u.RawQuery = q.path, q.raw
	c.w.code = http.StatusOK
	c.w.body.Reset()
	c.h.ServeHTTP(&c.w, &c.req)
	return c.w.code == http.StatusOK
}

// cacheCounter is the benchmark's statestore.Observer: it counts the decode
// cache's hits and misses and drops the rest.
// The analog pipeline's workers call it concurrently.
type cacheCounter struct{ hits, misses atomic.Int64 }

func (c *cacheCounter) AddCount(name string, d int64) {
	switch name {
	case "serve.cache.hits":
		c.hits.Add(d)
	case "serve.cache.misses":
		c.misses.Add(d)
	}
}
func (*cacheCounter) SetGauge(string, float64)     {}
func (*cacheCounter) ObserveValue(string, float64) {}

// checkReply compares a sampled reply with the reference: point values with
// the precision round trip of the captured field, analogs with the
// sequential brute-force scan.
func checkReply(in *serveInput, st *statestore.Store, q *query, body []byte) error {
	switch q.kind {
	case qPoint:
		var s statestore.Sample
		if err := json.Unmarshal(body, &s); err != nil {
			return err
		}
		if want := in.ref[q.snap][q.field][q.cell]; s.Value != want {
			return fmt.Errorf("%s?%s = %v, precision decode gives %v", q.path, q.raw, s.Value, want)
		}
	case qAnalogs:
		var got []statestore.Analog
		if err := json.Unmarshal(body, &got); err != nil {
			return err
		}
		want, err := st.BruteForceAnalogs(serveFields[q.field], in.ref[q.snap][q.field], analogK)
		if err != nil {
			return err
		}
		if len(got) != len(want) {
			return fmt.Errorf("%s?%s gave %d analogs, brute force %d", q.path, q.raw, len(got), len(want))
		}
		for i := range want {
			if got[i].Snap != want[i].Snap || got[i].Dist != want[i].Dist {
				return fmt.Errorf("%s?%s analog %d = %+v, brute force %+v", q.path, q.raw, i, got[i], want[i])
			}
		}
	}
	return nil
}

// serveLap runs one lap on a fresh store: build it, open it, warm up, then
// time the sessions. A session with a non-200 reply or a failed re-check is
// a failed op; the lap's gate carries the first such error.
func serveLap(in *serveInput, spec serveSpec, seed int64, lap int, dir string, rec *recorder) (res lapResult, err error) {
	defer os.RemoveAll(dir)
	t0 := time.Now()
	cc := &cacheCounter{}
	id := rec.begin("statestore.Create")
	w, err := statestore.Create(dir, 0, cc)
	rec.end(id)
	if err != nil {
		return res, err
	}
	defer w.Close()
	appendSnap := func(i int) error {
		id := rec.begin("statestore.Append")
		defer rec.end(id)
		return w.Append(in.snaps[i])
	}
	for i := 0; i < spec.initial; i++ {
		if err := appendSnap(i); err != nil {
			return res, err
		}
	}
	id = rec.begin("statestore.Open")
	st, err := statestore.Open(dir, cc)
	rec.end(id)
	if err != nil {
		return res, err
	}
	defer st.Close()
	srv, err := statestore.NewServer(st, "127.0.0.1:0", cc)
	if err != nil {
		return res, err
	}
	defer srv.Close()
	cl := newClient(srv.Handler())

	rng := rand.New(rand.NewSource(seed*1000003 + int64(lap)))
	nsnap := spec.initial
	res.parts = make([][]float64, servePartAppend+1)
	var qs []query
	var kept [][]byte // replies of a sampled session, by query index
	fail := func(err error) {
		if res.gate == nil {
			res.gate = err
		}
	}
	for i := -spec.warm; i < spec.sessions; i++ {
		grow := i >= 0 && i%spec.appendEvery == spec.appendEvery-1
		if grow {
			nsnap++
		}
		qs = sessionQueries(rng, in, nsnap, qs)
		sampled := i >= 0 && rng.Intn(sampleIn) == 0
		kept = kept[:0]
		ok := true

		rec.setOp(i)
		op := rec.begin("op")
		start := time.Now()
		part := start
		// closePart times what ran since the last part closed as part k,
		// which one session in every pays.
		closePart := func(k, every int) {
			now := time.Now()
			if i >= 0 {
				res.parts[k] = append(res.parts[k], ms(now.Sub(part))/float64(every))
			}
			part = now
		}
		if grow {
			if err := appendSnap(nsnap - 1); err != nil {
				return res, err
			}
			closePart(servePartAppend, spec.appendEvery)
		}
		for j := range qs {
			q := &qs[j]
			id := rec.begin(kindSpan[q.kind])
			good := cl.get(q)
			rec.end(id)
			if !good {
				ok = false
				fail(fmt.Errorf("%s?%s: status %d: %s", q.path, q.raw, cl.w.code, bytes.TrimSpace(cl.w.body.Bytes())))
			}
			if sampled {
				kept = append(kept, append([]byte(nil), cl.w.body.Bytes()...))
			}
			if j+1 == len(qs) || qs[j+1].kind != q.kind {
				closePart(int(q.kind), 1)
			}
		}
		d := time.Since(start)
		rec.end(op)
		if i == -spec.warm {
			res.setup = time.Since(t0)
		}
		if i < 0 {
			continue
		}
		for j, body := range kept {
			if err := checkReply(in, st, &qs[j], body); err != nil {
				ok = false
				fail(err)
			}
		}
		if !ok {
			res.failed++
		}
		res.opMs = append(res.opMs, ms(d))
	}
	if spec.sessions == 0 {
		return res, nil // a set-up sample: the first session is done
	}
	rec.setOp(-1)
	res.heapMB = liveHeapMB()
	res.cacheHits, res.cacheMisses = cc.hits.Load(), cc.misses.Load()
	return res, nil
}
