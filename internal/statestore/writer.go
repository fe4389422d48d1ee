package statestore

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"
	"os"
	"path/filepath"
	"sync"

	"repro/internal/precision"
)

// DataFile and ManifestFile are the two members of a store directory.
const (
	DataFile     = "store.dat"
	ManifestFile = "manifest.bin"
)

// Writer persists snapshots into a store directory. Field data is quantized
// group-scaled (precision §5.2.3) and appended to store.dat; the manifest is
// rewritten atomically after every appended snapshot, so a concurrent Store
// reader that re-reads the manifest observes only fully committed state.
//
// The schema — field names and lengths — is fixed by the first Append;
// later snapshots must carry exactly the same fields.
type Writer struct {
	dir   string
	group int
	obs   Observer

	mu   sync.Mutex
	man  manifest
	data *os.File
	off  int64

	// Reusable encode scratch: the quantizer and the serialized blob, so a
	// steady-state Append allocates only the manifest bookkeeping.
	gs   precision.GroupScaled
	blob []byte
}

// Create initializes a store directory (made if absent) and returns a
// Writer. group ≤ 0 selects DefaultGroup. An existing store in dir is
// truncated. o may be nil.
func Create(dir string, group int, o Observer) (*Writer, error) {
	if group <= 0 {
		group = DefaultGroup
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("statestore: %w", err)
	}
	os.Remove(filepath.Join(dir, ManifestFile))
	f, err := os.Create(filepath.Join(dir, DataFile))
	if err != nil {
		return nil, fmt.Errorf("statestore: %w", err)
	}
	return &Writer{dir: dir, group: group, obs: o, data: f, man: manifest{Group: group}}, nil
}

// Dir returns the store directory.
func (w *Writer) Dir() string { return w.dir }

// Snapshots returns the number of committed snapshots.
func (w *Writer) Snapshots() int {
	w.mu.Lock()
	defer w.mu.Unlock()
	return len(w.man.Snaps)
}

// Append quantizes and persists one snapshot, then commits the manifest.
// Safe for concurrent use, though the ingest path serializes calls anyway.
func (w *Writer) Append(s Snapshot) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.data == nil {
		return fmt.Errorf("statestore: Append on closed writer")
	}
	if len(w.man.Snaps) == 0 && len(w.man.Fields) == 0 {
		for _, f := range s.Fields {
			if len(f.Data) == 0 {
				return fmt.Errorf("statestore: field %q is empty", f.Name)
			}
			if len(f.Data) > maxFieldElem {
				return fmt.Errorf("statestore: field %q has %d elements (max %d)", f.Name, len(f.Data), maxFieldElem)
			}
			w.man.Fields = append(w.man.Fields, FieldInfo{Name: f.Name, Elems: len(f.Data)})
		}
		if len(w.man.Fields) == 0 {
			return fmt.Errorf("statestore: snapshot carries no fields")
		}
	}
	if len(s.Fields) != len(w.man.Fields) {
		return fmt.Errorf("statestore: snapshot carries %d fields, schema has %d", len(s.Fields), len(w.man.Fields))
	}
	meta := snapMeta{
		Step:    int64(s.Step),
		SimTime: s.SimTime,
		Off:     make([]int64, len(w.man.Fields)),
		CRC:     make([]uint32, len(w.man.Fields)),
	}
	var rawBytes, wireBytes int64
	for i, f := range s.Fields {
		want := w.man.Fields[i]
		if f.Name != want.Name || len(f.Data) != want.Elems {
			return fmt.Errorf("statestore: snapshot field %d is %q[%d], schema says %q[%d]",
				i, f.Name, len(f.Data), want.Name, want.Elems)
		}
		if err := precision.EncodeGroupScaledInto(&w.gs, f.Data, w.group); err != nil {
			return fmt.Errorf("statestore: encoding %q: %w", f.Name, err)
		}
		blob := w.encodeBlob()
		if _, err := w.data.WriteAt(blob, w.off); err != nil {
			return fmt.Errorf("statestore: appending %q: %w", f.Name, err)
		}
		meta.Off[i] = w.off
		meta.CRC[i] = crc32.Checksum(blob, crcTable)
		w.off += int64(len(blob))
		rawBytes += int64(8 * len(f.Data))
		wireBytes += int64(len(blob))
	}
	w.man.Snaps = append(w.man.Snaps, meta)
	if err := w.commitManifest(); err != nil {
		// Roll the index entry back so a retried Append re-commits cleanly;
		// the orphaned data bytes are unreachable and harmless.
		w.man.Snaps = w.man.Snaps[:len(w.man.Snaps)-1]
		return err
	}
	count(w.obs, "serve.ingest.snapshots", 1)
	count(w.obs, "serve.ingest.raw.bytes", rawBytes)
	count(w.obs, "serve.ingest.stored.bytes", wireBytes)
	return nil
}

// encodeBlob serializes the writer's scratch encoding as scales then values,
// reusing w.blob.
func (w *Writer) encodeBlob() []byte {
	n := 8*len(w.gs.Scales) + 4*len(w.gs.Vals)
	if cap(w.blob) < n {
		w.blob = make([]byte, 0, n)
	}
	b := w.blob[:0]
	for _, s := range w.gs.Scales {
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(s))
	}
	for _, v := range w.gs.Vals {
		b = binary.LittleEndian.AppendUint32(b, math.Float32bits(v))
	}
	w.blob = b
	return b
}

// commitManifest writes the index to a temporary sibling and atomically
// renames it into place.
func (w *Writer) commitManifest() error {
	path := filepath.Join(w.dir, ManifestFile)
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, encodeManifest(&w.man), 0o644); err != nil {
		return fmt.Errorf("statestore: %w", err)
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("statestore: %w", err)
	}
	return nil
}

// Close flushes and closes the data file. The manifest is already durable
// (committed per Append).
func (w *Writer) Close() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.data == nil {
		return nil
	}
	err := w.data.Close()
	w.data = nil
	return err
}

// Ingester feeds a Writer from a live run without perturbing it: Offer
// hands a snapshot to a side goroutine that quantizes and persists it, so
// the caller — the core.RunResilient OnCheckpoint hook, on the coupled
// driver's critical path — pays only a channel send. The queue bounds the
// staleness: at most Depth checkpoints can be waiting for
// persistence at any moment, and when the queue is full the newest snapshot
// is dropped (counted on serve.ingest.dropped) rather than blocking the
// model.
type Ingester struct {
	w     *Writer
	obs   Observer
	ch    chan Snapshot
	done  chan struct{}
	mu    sync.Mutex
	err   error
	drops int64
}

// NewIngester starts the persistence goroutine. depth ≤ 0 selects 4.
func NewIngester(w *Writer, depth int, o Observer) *Ingester {
	if depth <= 0 {
		depth = 4
	}
	in := &Ingester{w: w, obs: o, ch: make(chan Snapshot, depth), done: make(chan struct{})}
	go func() {
		defer close(in.done)
		for s := range in.ch {
			if err := w.Append(s); err != nil {
				in.mu.Lock()
				if in.err == nil {
					in.err = err
				}
				in.mu.Unlock()
				count(o, "serve.ingest.errors", 1)
			}
		}
	}()
	return in
}

// Offer enqueues a snapshot for persistence without blocking. The fields
// are shared by reference: the caller must hand over freshly assembled
// slices it will not mutate (the core capture path allocates per capture,
// off the zero-alloc step loop).
func (in *Ingester) Offer(s Snapshot) {
	select {
	case in.ch <- s:
	default:
		in.mu.Lock()
		in.drops++
		in.mu.Unlock()
		count(in.obs, "serve.ingest.dropped", 1)
	}
}

// Dropped returns how many offered snapshots were discarded because the
// persistence queue was full.
func (in *Ingester) Dropped() int64 {
	in.mu.Lock()
	defer in.mu.Unlock()
	return in.drops
}

// Close drains the queue, stops the persistence goroutine, and returns the
// first persistence error (the writer itself stays open — the owner closes
// it). After Close returns, every Offer that was not dropped is committed.
func (in *Ingester) Close() error {
	close(in.ch)
	<-in.done
	in.mu.Lock()
	defer in.mu.Unlock()
	return in.err
}
