package statestore

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"net/url"
	"path/filepath"
	"strings"
	"sync"
	"testing"
)

// encodingJSON is what the handlers wrote before they appended their own
// replies: json.Encoder's bytes, newline included.
func encodingJSON(t *testing.T, v any) string {
	t.Helper()
	var b bytes.Buffer
	if err := json.NewEncoder(&b).Encode(v); err != nil {
		t.Fatalf("encoding/json: %v", err)
	}
	return b.String()
}

func appended(v jsonValue) (string, error) {
	var r reply
	v.appendJSON(&r)
	return string(r.b) + "\n", r.err
}

// TestRepliesMatchEncodingJSON pins every reply type's hand-written JSON to
// encoding/json's bytes for the same value: the field order and names of the
// struct tags, the float format at its exponent cut-offs, and string escapes.
func TestRepliesMatchEncodingJSON(t *testing.T) {
	floats := []float64{0, math.Copysign(0, -1), 1, -1, 0.1, -2.5, 1e-6, 9.99e-7, 1e-7, -1.5e-7, 1e-10,
		1e20, 1e21, -1e21, 9.999999999999999e20, 123456.789, 101325.0078125, 290.125, float64(float32(0.1)),
		12345678901234567890, 5e-324, math.SmallestNonzeroFloat64, math.MaxFloat64, -math.MaxFloat64, 1.7e-308}
	rng := rand.New(rand.NewSource(1))
	for len(floats) < 20000 {
		switch f := math.Float64frombits(rng.Uint64()); len(floats) % 4 {
		case 0:
			if !math.IsNaN(f) && !math.IsInf(f, 0) {
				floats = append(floats, f)
			}
		case 1: // a dequantized value: a float32 times a power of two
			floats = append(floats, math.Ldexp(float64(rng.Float32()*2-1), rng.Intn(100)-50))
		case 2: // a surface pressure, as stored
			floats = append(floats, float64(float32(9e4+2e4*rng.Float64())))
		default: // simulated seconds, or a whole number past 10¹⁵
			floats = append(floats, float64(rng.Int63n(1<<uint(rng.Intn(62)+1))))
		}
	}
	for i, f := range floats {
		g := floats[(i*7+3)%len(floats)]
		for _, v := range []jsonValue{
			Sample{Snap: i, Step: -i, SimTime: f, Value: g},
			RegionSample{Snap: i, Step: 3 * i, SimTime: g, Min: f, Mean: -g, Max: f * 0.5},
			Analog{Snap: i, Step: i, SimTime: f, Dist: math.Abs(g)},
			Diag{Snap: i, Step: i, SimTime: f, MinPs: g, MinPsCell: i, MaxWind: f, MaxWindCell: -1, HeatResid: g, FWResid: f},
		} {
			got, err := appended(v)
			if err != nil {
				t.Fatalf("%#v: %v", v, err)
			}
			if want := encodingJSON(t, v); got != want {
				t.Fatalf("%T reply\n got %s\nwant %s", v, got, want)
			}
		}
	}
	names := []string{"atm.ps", "", `a"b`, `back\slash`, "<tag>&amp;", "tab\there", "\x01\x1f", "café", "\xff\xfe", "line sep"}
	var fields []FieldInfo
	for i, name := range names {
		fields = append(fields, FieldInfo{Name: name, Elems: i * 1000})
	}
	for _, m := range []metaReply{
		{Snapshots: 3, Group: 64, Fields: fields, FirstStep: 1, LastStep: 9},
		{Fields: []FieldInfo{}},
		{},
	} {
		got, err := appended(m)
		if err != nil {
			t.Fatal(err)
		}
		if want := encodingJSON(t, m); got != want {
			t.Fatalf("meta reply\n got %s\nwant %s", got, want)
		}
	}
	for _, xs := range [][]Sample{nil, {}, {{Snap: 1, Value: 2.5}, {Snap: 2, Value: -1e-9}}} {
		var r reply
		list(&r, xs)
		if got, want := string(r.b)+"\n", encodingJSON(t, xs); got != want {
			t.Fatalf("list %v: got %s, want %s", xs, got, want)
		}
	}
}

// TestNonFiniteReplyIsError pins what encoding/json refused silently: a NaN
// or infinite value makes the reply an error, not a 200 with a body cut short.
func TestNonFiniteReplyIsError(t *testing.T) {
	for _, f := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		if _, err := appended(Sample{Value: f}); err != errNonFinite {
			t.Errorf("Sample{Value: %v}: error %v, want errNonFinite", f, err)
		}
	}
	// Two cells near the largest float64: their region mean overflows.
	dir := filepath.Join(t.TempDir(), "store")
	w, err := Create(dir, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Append(Snapshot{Fields: []Field{{Name: PsField, Data: []float64{1.5e308, 1.5e308, 1}}}}); err != nil {
		t.Fatal(err)
	}
	w.Close()
	st, err := Open(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	rec := httptest.NewRecorder()
	(&Server{st: st}).Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/region?field=atm.ps&lo=0&hi=2", nil))
	if rec.Code != http.StatusInternalServerError || !strings.Contains(rec.Body.String(), "non-finite") {
		t.Fatalf("region whose mean overflows: status %d, body %q; want 500 naming the non-finite value", rec.Code, rec.Body)
	}
	if _, err := st.NearestAnalogs(PsField, []float64{0, math.NaN(), 0}, 1, 1); err == nil {
		t.Fatal("an analog query holding NaN was accepted")
	}
}

// TestServerRepliesMatchStore drives every endpoint and compares the body
// with encoding/json of the Store call the endpoint answers with.
func TestServerRepliesMatchStore(t *testing.T) {
	st, err := Open(buildStore(t, 6, 140, 50), nil)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	h := (&Server{st: st}).Handler()
	get := func(path string) string {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, path, nil))
		if rec.Code != http.StatusOK {
			t.Fatalf("GET %s: status %d: %s", path, rec.Code, rec.Body)
		}
		if ct := rec.Header().Get("Content-Type"); ct != "application/json" {
			t.Fatalf("GET %s: Content-Type %q", path, ct)
		}
		return rec.Body.String()
	}
	must := func(v any, err error) any {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		return v
	}
	val, _ := st.Point(4, WindField, 9)
	step, sim, _ := st.Meta(4)
	query, _ := st.DecodeField(2, PsField)
	for path, want := range map[string]any{
		"/v1/meta": metaReply{Snapshots: 6, Group: DefaultGroup, Fields: st.Fields(), FirstStep: 0, LastStep: 5},
		"/v1/point?field=atm.wind10m&cell=9&snap=4": Sample{Snap: 4, Step: step, SimTime: sim, Value: val},
		"/v1/point?field=ocn.sst&cell=17":           must(st.PointSeries(SSTField, 17)),
		"/v1/region?field=atm.ps&lo=30&hi=130":      must(st.RegionSeries(PsField, 30, 130)),
		"/v1/analogs?field=atm.ps&snap=2&k=4":       must(st.NearestAnalogs(PsField, query, 4, 1)),
		"/v1/diag?snap=3":                           must(st.Diagnostics(3)),
		"/v1/diag":                                  must(st.diagSeries(t.Context())),
	} {
		if got := get(path); got != encodingJSON(t, want) {
			t.Errorf("GET %s\n got %s\nwant %s", path, got, encodingJSON(t, want))
		}
	}
	for _, path := range []string{"/", "/v1", "/v1/point/", "/v1/POINT", "/v2/meta"} {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, path, nil))
		if rec.Code != http.StatusNotFound {
			t.Errorf("GET %s: status %d, want 404", path, rec.Code)
		}
	}
}

// TestParamsMatchURLValues pins params.get to url.Values.Get over the parsed
// query, on hand-picked corner cases and on random strings over the
// characters the query grammar gives meaning to.
func TestParamsMatchURLValues(t *testing.T) {
	raws := []string{"", "field=atm.ps&cell=3", "cell=1&cell=2", "cell", "cell=", "=3&cell=4", "&&cell=5&",
		"cell=1;snap=2&cell=3", "ce%6Cl=7", "c+ell=1&cell=2", "cell=%zz&cell=8", "%zz=1&cell=9",
		"field=atm+ps", "field=atm%2Eps", "field=a%3Bb", "cell=1&cell=2;", "k=%2B5"}
	rng := rand.New(rand.NewSource(3))
	const alphabet = "cel=&;%+2B6Cfid.s"
	for range 20000 {
		b := make([]byte, rng.Intn(24))
		for i := range b {
			b[i] = alphabet[rng.Intn(len(alphabet))]
		}
		raws = append(raws, string(b))
	}
	for _, raw := range raws {
		want, _ := url.ParseQuery(raw)
		for _, name := range []string{"cell", "field", "snap", "c"} {
			if got := params(raw).get(name); got != want.Get(name) {
				t.Fatalf("params(%q).get(%q) = %q, url.Values.Get gives %q", raw, name, got, want.Get(name))
			}
		}
	}
}

// TestCacheCountersOncePerQuery pins the blob-touch tallies: the totals are
// one per blob a query reads, as before, reported in one call per counter
// per query instead of one per blob.
func TestCacheCountersOncePerQuery(t *testing.T) {
	const snaps = 7
	dir := buildStore(t, snaps, 140, 50)
	rec := &callRecorder{}
	st, err := Open(dir, rec)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	query := make([]float64, 140)
	for name, c := range map[string]struct {
		run     func() error
		touches int64
	}{
		"Point":          {func() error { _, err := st.Point(1, PsField, 3); return err }, 1},
		"PointSeries":    {func() error { _, err := st.PointSeries(PsField, 3); return err }, snaps},
		"RegionSeries":   {func() error { _, err := st.RegionSeries(PsField, 0, 70); return err }, snaps},
		"NearestAnalogs": {func() error { _, err := st.NearestAnalogs(WindField, query, 2, 2); return err }, snaps},
		"DecodeField":    {func() error { _, err := st.DecodeField(2, SSTField); return err }, 1},
		"Diagnostics":    {func() error { _, err := st.Diagnostics(5); return err }, 2},
	} {
		rec.calls = map[string][]int64{}
		if err := c.run(); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		hits, misses := rec.calls["serve.cache.hits"], rec.calls["serve.cache.misses"]
		if len(hits) > 1 || len(misses) > 1 {
			t.Errorf("%s: %d hit and %d miss reports, want at most one each", name, len(hits), len(misses))
		}
		var total int64
		for _, d := range append(hits, misses...) {
			total += d
		}
		if total != c.touches {
			t.Errorf("%s: %d blob touches counted, want %d", name, total, c.touches)
		}
	}
}

// callRecorder is an Observer that records every AddCount call.
type callRecorder struct{ calls map[string][]int64 }

func (r *callRecorder) AddCount(name string, d int64) { r.calls[name] = append(r.calls[name], d) }
func (*callRecorder) SetGauge(string, float64)        {}
func (*callRecorder) ObserveValue(string, float64)    {}

// TestAnalogSearchExactOnTies runs the pruned search where its ordering is
// hardest: snapshots that repeat one another exactly, so distances tie and
// the snapshot id alone decides, and a store past two search chunks, so the
// per-chunk results are merged.
func TestAnalogSearchExactOnTies(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "store")
	w, err := Create(dir, 16, nil)
	if err != nil {
		t.Fatal(err)
	}
	const snaps = 2*minSearchChunk + 37
	for s := range snaps {
		// Five distinct states, each repeated, and every eleventh snapshot a
		// constant field.
		x := make([]float64, 40)
		for c := range x {
			x[c] = 3 * math.Sin(float64(c)*0.3+float64(s%5))
			if s%11 == 0 {
				x[c] = 1
			}
		}
		if err := w.Append(Snapshot{Step: s, Fields: []Field{{Name: "x", Data: x}}}); err != nil {
			t.Fatal(err)
		}
	}
	w.Close()
	st, err := Open(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	for _, qs := range []int{0, 3, 11, snaps - 1} {
		query, err := st.DecodeField(qs, "x")
		if err != nil {
			t.Fatal(err)
		}
		for _, k := range []int{1, 5, 400} {
			want, err := st.BruteForceAnalogs("x", query, k)
			if err != nil {
				t.Fatal(err)
			}
			for _, workers := range []int{1, 2, 4} {
				got, err := st.NearestAnalogs("x", query, k, workers)
				if err != nil {
					t.Fatal(err)
				}
				if fmt.Sprint(got) != fmt.Sprint(want) {
					t.Fatalf("query %d, k=%d, workers=%d: pruned search differs from brute force", qs, k, workers)
				}
			}
		}
	}
}

// TestHandlerConcurrentReplies serves one mix of queries from several
// goroutines at once: every reply must equal the one the query gets alone,
// whichever pooled buffer it was built in.
func TestHandlerConcurrentReplies(t *testing.T) {
	st, err := Open(buildStore(t, 9, 140, 50), nil)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	h := (&Server{st: st}).Handler()
	paths := []string{"/v1/meta", "/v1/point?field=atm.ps&cell=7&snap=3", "/v1/point?field=ocn.sst&cell=11",
		"/v1/region?field=atm.wind10m&lo=5&hi=120", "/v1/analogs?field=atm.ps&snap=4&k=3", "/v1/diag?snap=8", "/v1/diag"}
	get := func(path string) string {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, path, nil))
		return fmt.Sprint(rec.Code, " ", rec.Body)
	}
	want := make([]string, len(paths))
	for i, path := range paths {
		want[i] = get(path)
	}
	var wg sync.WaitGroup
	for g := range 4 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range 200 {
				j := (i*5 + g) % len(paths)
				if got := get(paths[j]); got != want[j] {
					t.Errorf("GET %s from goroutine %d: %s, alone %s", paths[j], g, got, want[j])
					return
				}
			}
		}()
	}
	wg.Wait()
}
