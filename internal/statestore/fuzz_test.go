package statestore

import (
	"net/http"
	"net/http/httptest"
	"testing"
)

// FuzzManifestDecode drives the manifest decoder with arbitrary bytes: it
// must never panic or allocate past its guardrails (the same bounds-checked
// byteReader discipline as pario's FuzzReadSubfile), and anything it
// accepts must satisfy the format's own invariants.
func FuzzManifestDecode(f *testing.F) {
	good := encodeManifest(&manifest{
		Group:  64,
		Fields: []FieldInfo{{Name: "atm.ps", Elems: 120}, {Name: "ocn.sst", Elems: 48}},
		Snaps: []snapMeta{
			{Step: 5, SimTime: 2400, Off: []int64{0, 676}, CRC: []uint32{0xdead, 0xbeef}},
			{Step: 10, SimTime: 4800, Off: []int64{900, 1576}, CRC: []uint32{1, 2}},
		},
	})
	f.Add(good)
	f.Add(good[:len(good)/2])
	f.Add(good[:12])
	f.Add([]byte("not a manifest"))
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := decodeManifest(data)
		if err != nil {
			return
		}
		// Accepted manifests must be internally consistent.
		if m.Group <= 0 || m.Group > maxFieldElem {
			t.Fatalf("accepted group size %d", m.Group)
		}
		if len(m.Fields) == 0 || len(m.Fields) > maxFields {
			t.Fatalf("accepted %d fields", len(m.Fields))
		}
		seen := map[string]bool{}
		for _, fd := range m.Fields {
			if fd.Name == "" || len(fd.Name) > maxNameLen {
				t.Fatalf("accepted field name %q", fd.Name)
			}
			if seen[fd.Name] {
				t.Fatalf("accepted duplicate field %q", fd.Name)
			}
			seen[fd.Name] = true
			if fd.Elems <= 0 || fd.Elems > maxFieldElem {
				t.Fatalf("accepted field %q with %d elements", fd.Name, fd.Elems)
			}
		}
		for i, s := range m.Snaps {
			if s.Step < 0 {
				t.Fatalf("accepted snapshot %d with step %d", i, s.Step)
			}
			if len(s.Off) != len(m.Fields) || len(s.CRC) != len(m.Fields) {
				t.Fatalf("snapshot %d index width %d/%d vs %d fields", i, len(s.Off), len(s.CRC), len(m.Fields))
			}
			for fi, off := range s.Off {
				if off < 0 || off+blobLen(m.Fields[fi].Elems, m.Group) < off {
					t.Fatalf("snapshot %d field %d offset %d overflows", i, fi, off)
				}
			}
		}
		// Round trip: re-encoding an accepted manifest must decode equal.
		again, err := decodeManifest(encodeManifest(m))
		if err != nil {
			t.Fatalf("re-encoded manifest rejected: %v", err)
		}
		if len(again.Snaps) != len(m.Snaps) || len(again.Fields) != len(m.Fields) || again.Group != m.Group {
			t.Fatalf("round trip changed shape: %+v vs %+v", again, m)
		}
	})
}

// FuzzServeQuery throws arbitrary raw query strings at every endpoint of a
// healthy store: whatever the client sends, the handler must not panic and
// must not blame the store (no 5xx) — a hostile query is a 400 at worst.
func FuzzServeQuery(f *testing.F) {
	endpoints := []string{"/v1/meta", "/v1/point", "/v1/region", "/v1/analogs", "/v1/diag"}
	for _, seed := range []string{
		"",
		"field=atm.ps&cell=3",
		"field=atm.ps&cell=3&snap=2",
		"field=atm.wind10m&lo=10&hi=90",
		"field=ocn.sst&snap=1&k=3&workers=2",
		"field=atm.ps&snap=0&k=9223372036854775807&workers=1000000",
		"field=atm.ps&snap=0&k=-1&workers=-1",
		"snap=4",
		"snap=99999999999999999999",
		"field=atm.ps&lo=-5&hi=0x10",
		"field=%zz&cell=1;snap=2",
		"field=atm.ps&field=ocn.sst&cell=1&cell=2",
	} {
		for e := range endpoints {
			f.Add(uint8(e), seed)
		}
	}
	st, err := Open(buildStore(f, 5, 140, 50), nil)
	if err != nil {
		f.Fatal(err)
	}
	f.Cleanup(func() { st.Close() })
	h := (&Server{st: st}).Handler()

	f.Fuzz(func(t *testing.T, endpoint uint8, raw string) {
		req := httptest.NewRequest(http.MethodGet, endpoints[int(endpoint)%len(endpoints)], nil)
		req.URL.RawQuery = raw
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		if rec.Code >= 500 {
			t.Fatalf("GET %s?%s on a healthy store: status %d: %s", req.URL.Path, raw, rec.Code, rec.Body)
		}
	})
}
