package pario

import (
	"encoding/binary"
	"errors"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/fault"
)

// sampleEncoding builds a small well-formed two-field image.
func sampleEncoding(version int) []byte {
	global := map[string]int{"temp": 8, "salt": 8}
	chunks := map[string][]chunk{
		"temp": {{Start: 0, Data: []float64{0, 1, 2, 3}}, {Start: 4, Data: []float64{4, 5, 6, 7}}},
		"salt": {{Start: 0, Data: []float64{0, .25, .5, .75, 1, 1.25, 1.5, 1.75}}},
	}
	return encodeFile(global, chunks, version)
}

func TestDecodeValidV2(t *testing.T) {
	global, chunks, err := decodeFile(sampleEncoding(2))
	if err != nil {
		t.Fatal(err)
	}
	if global["temp"] != 8 || len(chunks["temp"]) != 2 || len(chunks["salt"]) != 1 {
		t.Fatalf("decoded global=%v chunks=%v", global, chunks)
	}
}

func TestDecodeV1Compat(t *testing.T) {
	// A legacy v1 image (no checksums, no trailer) must stay readable.
	global, chunks, err := decodeFile(sampleEncoding(1))
	if err != nil {
		t.Fatalf("v1 image rejected: %v", err)
	}
	if global["salt"] != 8 || chunks["salt"][0].Data[1] != 0.25 {
		t.Fatal("v1 decode wrong")
	}
}

// TestDecodeDamage corrupts or truncates each section of a v2 file and
// asserts the typed error the reader must return.
func TestDecodeDamage(t *testing.T) {
	valid := sampleEncoding(2)
	flip := func(off int) func([]byte) []byte {
		return func(b []byte) []byte { b[off] ^= 0x01; return b }
	}
	put32 := func(off int, v uint32) func([]byte) []byte {
		return func(b []byte) []byte { binary.LittleEndian.PutUint32(b[off:], v); return b }
	}
	cases := []struct {
		name   string
		mutate func([]byte) []byte
		want   error
	}{
		{"empty", func(b []byte) []byte { return nil }, ErrTruncated},
		{"magic flipped", flip(0), ErrCorrupt},
		{"bad version", put32(4, 99), ErrCorrupt},
		{"huge field count", put32(8, 1<<30), ErrCorrupt},
		{"header only", func(b []byte) []byte { return b[:12] }, ErrTruncated},
		{"torn mid body", func(b []byte) []byte { return b[:len(b)/2] }, ErrTruncated},
		{"trailer shaved", func(b []byte) []byte { return b[:len(b)-3] }, ErrTruncated},
		{"name length bomb", put32(12, 1<<20), ErrCorrupt},
		// Offset 12 starts the first field: 4 (name len) + 4 ("salt").
		{"global size bomb", func(b []byte) []byte {
			binary.LittleEndian.PutUint64(b[20:], 1<<40)
			return b
		}, ErrCorrupt},
		{"field byte flipped", flip(40), ErrCorrupt},          // inside salt's chunk data
		{"last data byte", flip(len(valid) - 17), ErrCorrupt}, // inside temp, before its CRC
		{"trailer crc flipped", flip(len(valid) - 1), ErrCorrupt},
		{"trailer magic flipped", flip(len(valid) - 16), ErrTruncated},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			img := tc.mutate(append([]byte(nil), valid...))
			_, _, err := decodeFile(img)
			if !errors.Is(err, tc.want) {
				t.Fatalf("got %v, want %v", err, tc.want)
			}
		})
	}
	// The pristine image still decodes (mutations copied it).
	if _, _, err := decodeFile(valid); err != nil {
		t.Fatalf("pristine image broke: %v", err)
	}
}

func TestChunkBoundsChecked(t *testing.T) {
	// A chunk whose start+length overruns its declared global size must be
	// ErrCorrupt, not an over-allocation or silent wraparound.
	img := encodeFile(map[string]int{"x": 4},
		map[string][]chunk{"x": {{Start: 3, Data: []float64{1, 2, 3}}}}, 2)
	if _, _, err := decodeFile(img); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("overrunning chunk: %v", err)
	}
}

func TestWriteFileAtomic(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "part-0.bin")
	global := map[string]int{"v": 2}
	good := map[string][]chunk{"v": {{Start: 0, Data: []float64{1, 2}}}}
	if err := writeFile(path, global, good); err != nil {
		t.Fatal(err)
	}
	before, _ := os.ReadFile(path)

	// An injected I/O error must leave the previous file untouched and no
	// temporary debris behind.
	plan, _ := fault.New(1, fault.Injection{Kind: fault.IOError, Site: "pario.write", Hit: 1, Rank: fault.AnyRank})
	fault.Arm(plan)
	err := writeFile(path, global, map[string][]chunk{"v": {{Start: 0, Data: []float64{9, 9}}}})
	fault.Disarm()
	if err == nil {
		t.Fatal("injected I/O error not surfaced")
	}
	after, _ := os.ReadFile(path)
	if string(before) != string(after) {
		t.Fatal("failed write clobbered the previous file")
	}
	ents, _ := os.ReadDir(dir)
	if len(ents) != 1 {
		t.Fatalf("directory has %d entries after failed write", len(ents))
	}
}

func TestInjectedTornAndBitflipDetected(t *testing.T) {
	for _, kind := range []fault.Kind{fault.Torn, fault.Bitflip} {
		dir := t.TempDir()
		path := filepath.Join(dir, "part-0.bin")
		plan, _ := fault.New(7, fault.Injection{Kind: kind, Site: "pario.write", Hit: 1, Rank: fault.AnyRank})
		fault.Arm(plan)
		err := writeFile(path, map[string]int{"v": 64},
			map[string][]chunk{"v": {{Start: 0, Data: make([]float64, 64)}}})
		fault.Disarm()
		if err != nil {
			t.Fatalf("%s: write itself failed: %v", kind, err)
		}
		if _, _, rerr := readFile(path); !errors.Is(rerr, ErrCorrupt) && !errors.Is(rerr, ErrTruncated) {
			t.Fatalf("%s damage not detected: %v", kind, rerr)
		}
	}
}

func TestEncodingDeterministic(t *testing.T) {
	a, b := sampleEncoding(2), sampleEncoding(2)
	if string(a) != string(b) {
		t.Fatal("identical state produced different bytes")
	}
}
