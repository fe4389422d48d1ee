// Package statestore is the forecast-state serving layer: it persists
// per-interval model state as group-scaled quantized encodings
// (internal/precision §5.2.3) into an indexed store and serves concurrent
// queries from the data file's own mapped bytes — point and region
// time-series extraction that dequantizes only the touched groups,
// nearest-analog search scored in the quantized domain, and derived
// diagnostics (min surface pressure, max wind, conservation residuals).
//
// The store is the "millions of users" front door of the ROADMAP: a
// year-scale simulation only matters if its state reaches consumers, so the
// layout is optimized for read concurrency and the ingest path is shaped so
// a live run feeds the store from a checkpoint hook on a side goroutine —
// the coupled step loop never blocks on serving-layer work.
//
// On disk a store is a directory of two files. store.dat is append-only
// quantized field data: per snapshot, per field, the group scales (float64)
// followed by the quantized values (float32), checksummed with CRC32C.
// manifest.bin is the index — schema, snapshot metadata, per-field offsets
// and checksums — rewritten atomically (temp + rename, the pario v2 trailer
// discipline) on every committed snapshot, so a reader that re-reads the
// manifest sees only fully written data and a torn manifest write is
// detected by its trailer rather than misread.
package statestore

import (
	"errors"
	"fmt"
)

// Magic identifies a statestore manifest.
const Magic = 0x41503353 // "AP3S"

// TrailerMagic opens the manifest's end-of-file trailer.
const TrailerMagic = 0x41503355 // "AP3U"

// Version is the current manifest format version.
const Version = 1

// DefaultGroup is the default quantization group size: one shared
// power-of-two scale per 64 consecutive values, so the storage footprint
// is 4 + 8/64 ≈ 4.125 bytes per value.
const DefaultGroup = 64

// Decoder guardrails, mirroring pario's: a manifest declaring more than
// these is corrupt by definition, which bounds what a hostile or truncated
// index can make the reader allocate.
const (
	maxNameLen   = 4096
	maxFields    = 4096
	maxFieldElem = 1 << 24 // 16M elements per field
	maxSnapshots = 1 << 24
)

// Typed decode errors; match with errors.Is.
var (
	// ErrCorrupt reports bytes that cannot be a well-formed manifest:
	// bad magic, checksum mismatch, or impossible sizes.
	ErrCorrupt = errors.New("corrupt state store")
	// ErrTruncated reports a manifest or data file that ends before its own
	// declared structure does.
	ErrTruncated = errors.New("truncated state store")
	// ErrClosed reports a query or Refresh on a Store after its Close.
	ErrClosed = errors.New("state store is closed")
)

// Field is one named global field of a snapshot.
type Field struct {
	Name string
	Data []float64
}

// Snapshot is one coupling interval's captured model state.
type Snapshot struct {
	Step    int     // coupling step the state was captured at
	SimTime float64 // simulated seconds since the run start
	Fields  []Field
}

// FieldInfo describes one field of the store's fixed schema.
type FieldInfo struct {
	Name  string `json:"name"`
	Elems int    `json:"elems"`
}

// Observer is the instrumentation hook consumed by the serving layer — the
// structural subset of obs.Observer it needs, declared locally so statestore
// does not import obs (the same discipline as pario).
type Observer interface {
	AddCount(name string, delta int64)
	SetGauge(name string, v float64)
	ObserveValue(name string, v float64)
}

// count and observe are the nil-safe observer helpers.
func count(o Observer, name string, d int64) {
	if o != nil {
		o.AddCount(name, d)
	}
}

func observe(o Observer, name string, v float64) {
	if o != nil {
		o.ObserveValue(name, v)
	}
}

// groups returns the number of quantization groups covering elems values.
func groups(elems, group int) int { return (elems + group - 1) / group }

// blobLen returns the encoded byte length of one field blob: the group
// scales (8 bytes each) followed by the quantized values (4 bytes each).
func blobLen(elems, group int) int64 { return int64(8*groups(elems, group) + 4*elems) }

// fieldIndex resolves a field name against the schema.
func fieldIndex(fields []FieldInfo, name string) (int, error) {
	for i, f := range fields {
		if f.Name == name {
			return i, nil
		}
	}
	return 0, fmt.Errorf("statestore: no field %q in store schema", name)
}
