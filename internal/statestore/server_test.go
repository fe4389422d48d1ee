package statestore

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"
	"time"
)

// getJSON drives one endpoint through the test server and decodes the body.
func getJSON(t *testing.T, ts *httptest.Server, path string, out any) {
	t.Helper()
	resp, err := ts.Client().Get(ts.URL + path)
	if err != nil {
		t.Fatalf("GET %s: %v", path, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: status %d", path, resp.StatusCode)
	}
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		t.Fatalf("GET %s: decoding: %v", path, err)
	}
}

func TestServerEndpoints(t *testing.T) {
	dir := buildStore(t, 5, 140, 50)
	st, err := Open(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	srv := &Server{st: st}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	var meta metaReply
	getJSON(t, ts, "/v1/meta", &meta)
	if meta.Snapshots != 5 || meta.Group != DefaultGroup || len(meta.Fields) != 3 {
		t.Fatalf("meta = %+v", meta)
	}
	if meta.FirstStep != 0 || meta.LastStep != 4 {
		t.Fatalf("meta steps = %d..%d, want 0..4", meta.FirstStep, meta.LastStep)
	}

	var series []Sample
	getJSON(t, ts, fmt.Sprintf("/v1/point?field=%s&cell=3", PsField), &series)
	if len(series) != 5 {
		t.Fatalf("point series length %d, want 5", len(series))
	}
	want, _ := st.Point(2, PsField, 3)
	if series[2].Value != want {
		t.Fatalf("series[2] = %v, want %v", series[2].Value, want)
	}

	var one Sample
	getJSON(t, ts, fmt.Sprintf("/v1/point?field=%s&cell=3&snap=2", PsField), &one)
	if one.Value != want || one.Snap != 2 {
		t.Fatalf("single-point reply = %+v", one)
	}

	var region []RegionSample
	getJSON(t, ts, fmt.Sprintf("/v1/region?field=%s&lo=10&hi=90", WindField), &region)
	if len(region) != 5 || region[0].Min > region[0].Max {
		t.Fatalf("region reply = %+v", region[:1])
	}

	var analogs []Analog
	getJSON(t, ts, fmt.Sprintf("/v1/analogs?field=%s&snap=1&k=3", PsField), &analogs)
	if len(analogs) != 3 || analogs[0].Snap != 1 || analogs[0].Dist != 0 {
		t.Fatalf("analog reply = %+v", analogs)
	}

	var diag Diag
	getJSON(t, ts, "/v1/diag?snap=0", &diag)
	if diag.MinPsCell < 0 || diag.MaxWindCell < 0 {
		t.Fatalf("diag reply = %+v", diag)
	}
	var diags []Diag
	getJSON(t, ts, "/v1/diag", &diags)
	if len(diags) != 5 {
		t.Fatalf("diag series length %d, want 5", len(diags))
	}

	// Error paths come back as HTTP 400, not hung connections or panics.
	for _, bad := range []string{
		"/v1/point?field=no.such&cell=0",
		"/v1/point?field=" + PsField,
		"/v1/point?field=" + PsField + "&cell=kaboom",
		"/v1/region?field=" + PsField + "&lo=50&hi=10",
		"/v1/analogs?field=" + PsField,
		"/v1/diag?snap=99",
	} {
		resp, err := ts.Client().Get(ts.URL + bad)
		if err != nil {
			t.Fatalf("GET %s: %v", bad, err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("GET %s: status %d, want 400", bad, resp.StatusCode)
		}
	}
}

// TestServerErrorStatus pins which side an error is charged to: a request
// the store rejects is a 400, a store that cannot answer a well-formed
// request — corrupt, truncated, closed — is a 500.
func TestServerErrorStatus(t *testing.T) {
	status := func(st *Store, path string) int {
		rec := httptest.NewRecorder()
		(&Server{st: st}).Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, path, nil))
		return rec.Code
	}
	queries := []string{
		"/v1/point?field=atm.ps&cell=3&snap=1",
		"/v1/point?field=atm.ps&cell=3",
		"/v1/region?field=atm.ps&lo=0&hi=40",
		"/v1/analogs?field=atm.ps&snap=1",
		"/v1/diag?snap=1",
		"/v1/diag",
	}

	healthy, err := Open(buildStore(t, 3, 90, 40), nil)
	if err != nil {
		t.Fatal(err)
	}
	defer healthy.Close()
	for _, path := range queries {
		if got := status(healthy, path); got != http.StatusOK {
			t.Errorf("healthy store, GET %s: status %d, want 200", path, got)
		}
	}
	for _, path := range []string{
		"/v1/point?field=no.such&cell=0",
		"/v1/point?field=atm.ps&cell=90&snap=0",
		"/v1/point?field=atm.ps&cell=0&snap=3",
		"/v1/point?field=atm.ps&cell=zero",
		"/v1/region?field=atm.ps&lo=50&hi=10",
		"/v1/region?field=atm.ps&lo=0&hi=91",
		"/v1/analogs?field=atm.ps&snap=3",
		"/v1/analogs?field=atm.ps&snap=0&k=0",
		"/v1/analogs?field=atm.ps&snap=0&k=-4",
		"/v1/diag?snap=99",
		"/v1/diag?snap=1e3",
	} {
		if got := status(healthy, path); got != http.StatusBadRequest {
			t.Errorf("healthy store, GET %s: status %d, want 400", path, got)
		}
	}

	// One flipped byte in atm.ps of snapshot 1.
	dir := buildStore(t, 3, 90, 40)
	data := filepath.Join(dir, DataFile)
	b, err := os.ReadFile(data)
	if err != nil {
		t.Fatal(err)
	}
	b[len(b)/3+20] ^= 0x01
	if err := os.WriteFile(data, b, 0o644); err != nil {
		t.Fatal(err)
	}
	corrupt, err := Open(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer corrupt.Close()
	if _, err := corrupt.DecodeField(1, PsField); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("the flipped byte is not in atm.ps of snapshot 1: %v", err)
	}
	for _, path := range queries {
		if got := status(corrupt, path); got != http.StatusInternalServerError {
			t.Errorf("corrupt store, GET %s: status %d, want 500", path, got)
		}
	}
	if got := status(corrupt, "/v1/point?field=no.such&cell=0"); got != http.StatusBadRequest {
		t.Errorf("corrupt store, unknown field: status %d, want 400", got)
	}

	closed, err := Open(buildStore(t, 3, 90, 40), nil)
	if err != nil {
		t.Fatal(err)
	}
	closed.Close()
	for _, path := range append(queries, "/v1/meta") {
		if got := status(closed, path); got != http.StatusInternalServerError {
			t.Errorf("closed store, GET %s: status %d, want 500", path, got)
		}
	}
}

// TestAnalogParamsBounded pins that the client-chosen workers= and k= cost
// what the store's size allows, not what the client asked for.
func TestAnalogParamsBounded(t *testing.T) {
	const snaps = 5
	st, err := Open(buildStore(t, snaps, 140, 50), nil)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	ts := httptest.NewServer((&Server{st: st}).Handler())
	defer ts.Close()
	var analogs []Analog
	getJSON(t, ts, "/v1/analogs?field=atm.ps&snap=2&k=1000000000&workers=1000000000", &analogs)
	if len(analogs) != snaps || analogs[0].Snap != 2 {
		t.Fatalf("analog reply = %+v, want all %d snapshots with 2 first", analogs, snaps)
	}
	query, err := st.DecodeField(2, PsField)
	if err != nil {
		t.Fatal(err)
	}
	// A goroutine is an allocation, as is each slot of a k-sized result.
	allocs := testing.AllocsPerRun(10, func() {
		if _, err := st.NearestAnalogs(PsField, query, 1<<30, 1<<30); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 40 {
		t.Fatalf("NearestAnalogs(k=2^30, workers=2^30) over %d snapshots made %v allocations", snaps, allocs)
	}
}

// TestScansHonourContext pins that every scan stops for a context that is
// done, and that the handler reports the abandoned request as a 503.
func TestScansHonourContext(t *testing.T) {
	st, err := Open(buildStore(t, 6, 140, 50), nil)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	query := make([]float64, 140)
	for name, scan := range map[string]func() error{
		"pointSeries":    func() error { _, err := st.pointSeries(ctx, PsField, 3); return err },
		"regionSeries":   func() error { _, err := st.regionSeries(ctx, PsField, 0, 64); return err },
		"nearestAnalogs": func() error { _, err := st.nearestAnalogs(ctx, PsField, query, 3, 2); return err },
		"diagSeries":     func() error { _, err := st.diagSeries(ctx); return err },
	} {
		if err := scan(); !errors.Is(err, context.Canceled) {
			t.Errorf("%s under a cancelled context: %v, want context.Canceled", name, err)
		}
	}
	h := (&Server{st: st}).Handler()
	for _, path := range []string{"/v1/point?field=atm.ps&cell=3", "/v1/region?field=atm.ps&lo=0&hi=64", "/v1/analogs?field=atm.ps&snap=0", "/v1/diag"} {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, path, nil).WithContext(ctx))
		if rec.Code != http.StatusServiceUnavailable {
			t.Errorf("GET %s under a cancelled context: status %d, want 503", path, rec.Code)
		}
	}
}

// TestServerCloseReleasesListener pins the shutdown contract the serving
// layer shares with the Prometheus sink fix: Close joins the serve
// goroutine and frees the port.
func TestServerCloseReleasesListener(t *testing.T) {
	dir := buildStore(t, 2, 64, 16)
	st, err := Open(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	srv, err := NewServer(st, "127.0.0.1:0", nil)
	if err != nil {
		t.Fatal(err)
	}
	addr := srv.Addr()
	resp, err := http.Get("http://" + addr + "/v1/meta")
	if err != nil {
		t.Fatalf("live GET: %v", err)
	}
	resp.Body.Close()
	if srv.srv.ReadHeaderTimeout <= 0 {
		t.Fatal("server has no ReadHeaderTimeout (slowloris-able)")
	}
	if err := srv.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	// The port must be immediately re-bindable: the listener is gone and the
	// serve goroutine has exited (Close joined it).
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		t.Fatalf("rebinding %s after Close: %v", addr, err)
	}
	ln.Close()
	select {
	case <-srv.done:
	case <-time.After(2 * time.Second):
		t.Fatal("serve goroutine still running after Close")
	}
}
