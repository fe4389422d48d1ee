package statestore_test

// Per-query-class cost of the HTTP front end over a store of captured model
// state, in the shape of one serving session (meta, points, point series,
// regions, analogs, diagnostics):
//
//	go test -run '^$' -bench ServeQuery ./internal/statestore

import (
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/par"
	"repro/internal/pp"
	"repro/internal/statestore"
)

const sessionSnaps = 128 // a serving store's size: 128 coupling steps of 25v10

var captured struct {
	once  sync.Once
	snaps []statestore.Snapshot
	err   error
}

// capturedSnapshots steps a 1-rank 25v10 model and captures the serving
// field set after every step, once per test binary.
func capturedSnapshots(b *testing.B) []statestore.Snapshot {
	captured.once.Do(func() {
		cfg, err := core.ConfigForLabel("25v10")
		if err != nil {
			captured.err = err
			return
		}
		start := time.Date(2023, 7, 21, 0, 0, 0, 0, time.UTC)
		par.Run(1, func(c *par.Comm) {
			e, err := core.NewWithOptions(cfg, c,
				core.WithInterval(start, start.Add(240*time.Hour)),
				core.WithSpace(pp.Serial{}),
				core.WithAudit(true), core.WithObserver(obs.Nop{}))
			if err != nil {
				captured.err = err
				return
			}
			for i := 0; i < sessionSnaps; i++ {
				e.Step()
				snap, _ := e.CaptureServeSnapshot()
				captured.snaps = append(captured.snaps, snap)
			}
		})
	})
	if captured.err != nil {
		b.Fatal(captured.err)
	}
	return captured.snaps
}

// BenchmarkServeQuery times one request of each class through the handler,
// with every blob already verified, as a warm serving session sees them.
func BenchmarkServeQuery(b *testing.B) {
	snaps := capturedSnapshots(b)
	dir := filepath.Join(b.TempDir(), "store")
	w, err := statestore.Create(dir, 0, nil)
	if err != nil {
		b.Fatal(err)
	}
	defer w.Close()
	for _, s := range snaps {
		if err := w.Append(s); err != nil {
			b.Fatal(err)
		}
	}
	st, err := statestore.Open(dir, nil)
	if err != nil {
		b.Fatal(err)
	}
	defer st.Close()
	srv, err := statestore.NewServer(st, "127.0.0.1:0", nil)
	if err != nil {
		b.Fatal(err)
	}
	defer srv.Close()
	h := srv.Handler()
	cells := func(field string) int {
		for _, f := range st.Fields() {
			if f.Name == field {
				return f.Elems
			}
		}
		b.Fatalf("no field %q", field)
		return 0
	}
	nPs, nSST := cells(statestore.PsField), cells(statestore.SSTField)

	classes := []struct {
		name  string
		query func(r *rand.Rand) string
	}{
		{"meta", func(*rand.Rand) string { return "/v1/meta" }},
		{"point", func(r *rand.Rand) string {
			return fmt.Sprintf("/v1/point?field=atm.ps&cell=%d&snap=%d", r.Intn(nPs), r.Intn(sessionSnaps))
		}},
		{"series", func(r *rand.Rand) string { return fmt.Sprintf("/v1/point?field=ocn.sst&cell=%d", r.Intn(nSST)) }},
		{"region", func(r *rand.Rand) string {
			lo := r.Intn(nPs - 96)
			return fmt.Sprintf("/v1/region?field=atm.ps&lo=%d&hi=%d", lo, lo+96)
		}},
		{"analogs_ps", func(r *rand.Rand) string {
			return fmt.Sprintf("/v1/analogs?field=atm.ps&snap=%d&k=5&workers=2", r.Intn(sessionSnaps))
		}},
		{"analogs_sst", func(r *rand.Rand) string {
			return fmt.Sprintf("/v1/analogs?field=ocn.sst&snap=%d&k=5&workers=2", r.Intn(sessionSnaps))
		}},
		{"diag", func(r *rand.Rand) string { return fmt.Sprintf("/v1/diag?snap=%d", r.Intn(sessionSnaps)) }},
	}
	for _, c := range classes {
		// 64 requests drawn once, replayed round robin, so the timed loop
		// formats nothing; the first pass verifies every blob they touch.
		rng := rand.New(rand.NewSource(7))
		reqs := make([]*http.Request, 64)
		for i := range reqs {
			reqs[i] = httptest.NewRequest(http.MethodGet, c.query(rng), nil)
		}
		rec := httptest.NewRecorder()
		for _, r := range reqs {
			rec.Body.Reset()
			h.ServeHTTP(rec, r)
			if rec.Code != http.StatusOK {
				b.Fatalf("GET %s: status %d: %s", r.URL, rec.Code, rec.Body)
			}
		}
		b.Run(c.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				rec.Body.Reset()
				h.ServeHTTP(rec, reqs[i%len(reqs)])
			}
		})
	}
}
