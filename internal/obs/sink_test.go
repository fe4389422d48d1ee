package obs

import (
	"encoding/json"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

func TestJSONLRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "events.jsonl")
	sink, err := NewJSONLSink(path)
	if err != nil {
		t.Fatal(err)
	}
	o := New(2, sink)
	sp := o.StartSpan("ocn")
	time.Sleep(time.Millisecond)
	sp.End()
	o.AddCount("par.send.bytes", 4096)
	o.FlushMetrics()
	if err := sink.Close(); err != nil {
		t.Fatal(err)
	}

	events := readJSONL(t, path)
	var span, section, counter *Event
	for i := range events {
		e := &events[i]
		switch {
		case e.Kind == "span" && e.Name == "ocn":
			span = e
		case e.Kind == "section" && e.Name == "ocn":
			section = e
		case e.Kind == "counter" && e.Name == "par.send.bytes":
			counter = e
		}
	}
	if span == nil || span.Rank != 2 || span.DurNs < int64(time.Millisecond) {
		t.Fatalf("span event missing or wrong: %+v", span)
	}
	if section == nil || section.Count != 1 || section.Value <= 0 {
		t.Fatalf("flushed section missing or wrong: %+v", section)
	}
	if counter == nil || counter.Count != 4096 {
		t.Fatalf("flushed counter missing or wrong: %+v", counter)
	}
}

// readJSONL decodes the event log a JSONLSink wrote to path.
func readJSONL(t *testing.T, path string) []Event {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var out []Event
	for dec := json.NewDecoder(f); ; {
		var e Event
		if err := dec.Decode(&e); err == io.EOF {
			return out
		} else if err != nil {
			t.Fatal(err)
		}
		out = append(out, e)
	}
}

func TestPromRender(t *testing.T) {
	sink := &PromSink{}
	o0 := New(0, sink)
	o1 := New(1, sink)
	o0.StartSpan("atm").End()
	o1.StartSpan("atm").End()
	o0.AddCount("par.send.bytes", 100)
	o1.AddCount("par.send.bytes", 200)
	o0.SetGauge("pario.subfile.groups", 2)
	o0.ObserveValue("tile_seconds", 0.004)

	var b strings.Builder
	sink.Render(&b)
	text := b.String()

	for _, want := range []string{
		`ap3esm_section_atm_seconds{rank="0"}`,
		`ap3esm_section_atm_calls{rank="1"} 1`,
		`ap3esm_par_send_bytes{rank="0"} 100`,
		`ap3esm_par_send_bytes{rank="1"} 200`,
		`ap3esm_pario_subfile_groups{rank="0"} 2`,
		`ap3esm_tile_seconds_bucket{rank="0",le="+Inf"} 1`,
		`ap3esm_tile_seconds_count{rank="0"} 1`,
		"# TYPE ap3esm_par_send_bytes counter",
		"# TYPE ap3esm_tile_seconds histogram",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("exposition missing %q\n%s", want, text)
		}
	}
	// The TYPE line for a shared metric must appear exactly once.
	if n := strings.Count(text, "# TYPE ap3esm_par_send_bytes counter"); n != 1 {
		t.Errorf("TYPE line repeated %d times", n)
	}
}

func TestPromHTTP(t *testing.T) {
	sink, err := NewPromSink("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer sink.Close()
	o := New(0, sink)
	o.AddCount("par.send.msgs", 7)

	resp, err := http.Get("http://" + sink.Addr() + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(body), `ap3esm_par_send_msgs{rank="0"} 7`) {
		t.Fatalf("HTTP exposition missing counter:\n%s", body)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("content type = %q", ct)
	}
}

// TestPromCloseReleasesListener pins the shutdown contract: Close joins the
// serve goroutine, so the port is immediately re-bindable — no leaked
// listener, no goroutine still accepting on a dead sink. It also checks the
// server carries a ReadHeaderTimeout (the slowloris guard).
func TestPromCloseReleasesListener(t *testing.T) {
	sink, err := NewPromSink("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	if sink.srv.ReadHeaderTimeout <= 0 {
		t.Fatal("prom server has no ReadHeaderTimeout (slowloris-able)")
	}
	addr := sink.Addr()
	if err := sink.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	select {
	case <-sink.done:
	case <-time.After(2 * time.Second):
		t.Fatal("serve goroutine still running after Close")
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		t.Fatalf("rebinding %s after Close: %v", addr, err)
	}
	ln.Close()
	if _, err := http.Get("http://" + addr + "/metrics"); err == nil {
		t.Fatal("GET succeeded against a closed sink")
	}
}

func TestOpenSink(t *testing.T) {
	if s, err := OpenSink("off"); err != nil || s != nil {
		t.Fatalf("off -> (%v, %v), want (nil, nil)", s, err)
	}
	if s, err := OpenSink(""); err != nil || s != nil {
		t.Fatalf("empty -> (%v, %v), want (nil, nil)", s, err)
	}
	if s, err := OpenSink("mem"); err != nil || s == nil {
		t.Fatalf("mem -> (%v, %v)", s, err)
	}
	path := filepath.Join(t.TempDir(), "log.jsonl")
	s, err := OpenSink("jsonl:" + path)
	if err != nil {
		t.Fatal(err)
	}
	s.Close()
	if _, err := OpenSink("bogus:x"); err == nil {
		t.Fatal("bogus spec should error")
	}
}
