package statestore

import (
	"context"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"
	"os"
	"path/filepath"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"
)

// Store serves concurrent queries straight from the data file's own bytes:
// store.dat is mapped read-only and every query is a function over the
// mapped window. All query methods are safe for concurrent use and hold mu
// shared for their duration, so Close (exclusive) never unmaps memory a query
// is reading. Refresh may run concurrently with queries (live ingest): it
// publishes a new view and never invalidates an earlier one — committed
// snapshots are immutable and an outgrown mapping stays valid until Close.
type Store struct {
	dir  string
	obs  Observer
	data *os.File

	mu     sync.RWMutex // shared: queries and Refresh; exclusive: Close
	closed bool

	refresh sync.Mutex // serializes Refresh; guards windows
	windows [][]byte   // every reservation mapFile has made, released by Close
	v       atomic.Pointer[view]
}

// view is what one query sees: an index and the window holding the bytes it
// points into. Views are immutable apart from the verified bits.
type view struct {
	man *manifest
	// win is the data file from offset 0 to its size when the view was
	// built; cap(win) is how far the file can grow inside this reservation.
	win []byte
	// verified has one bit per (snapshot, field) blob, set once the blob's
	// CRC32C has matched the manifest's. A Refresh copies the bits forward;
	// a bit set on the old view after the copy only costs one more check.
	verified []atomic.Uint32
}

// Open loads the manifest and maps the data file. o may be nil.
func Open(dir string, o Observer) (*Store, error) {
	man, err := readManifest(dir)
	if err != nil {
		return nil, err
	}
	f, err := os.Open(filepath.Join(dir, DataFile))
	if err != nil {
		return nil, fmt.Errorf("statestore: %w", err)
	}
	s := &Store{dir: dir, obs: o, data: f}
	if err := s.publish(man, &view{}); err != nil {
		f.Close()
		return nil, err
	}
	return s, nil
}

func readManifest(dir string) (*manifest, error) {
	path := filepath.Join(dir, ManifestFile)
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("statestore: reading %s: %w", path, err)
	}
	man, err := decodeManifest(data)
	if err != nil {
		return nil, fmt.Errorf("%w (manifest %s)", err, path)
	}
	return man, nil
}

// minReserve is the smallest reservation: address space, not memory.
const minReserve = 1 << 20

// reserveFor returns how many bytes to reserve for a file of size bytes: the
// power of two that leaves it room to double, so a store growing to n bytes
// is mapped O(log n) times.
func reserveFor(size int64) (int, error) {
	r := int64(minReserve)
	for r < 2*size {
		r *= 2
	}
	if r > math.MaxInt {
		return 0, fmt.Errorf("statestore: a %d-byte data file cannot be mapped on this platform", size)
	}
	return int(r), nil
}

// loadFile is mapFile where there is no mmap: the window is a heap copy of
// the file, extended in place while the file grows inside the reservation
// (the new bytes lie past every earlier view's window, so no reader sees
// them being written) and copied into a larger one when it outgrows it.
func loadFile(f *os.File, prev []byte, size int64) ([]byte, error) {
	if size <= int64(len(prev)) {
		return prev[:size], nil
	}
	win := prev
	if size > int64(cap(prev)) {
		reserve, err := reserveFor(size)
		if err != nil {
			return nil, err
		}
		win = make([]byte, len(prev), reserve)
		copy(win, prev)
	}
	if _, err := f.ReadAt(win[len(prev):size], int64(len(prev))); err != nil {
		return nil, fmt.Errorf("statestore: loading %s: %w (%w)", f.Name(), err, ErrTruncated)
	}
	return win[:size], nil
}

// publish builds the view of man over the data file as it is now and makes
// it current. The caller holds s.refresh (or is Open).
func (s *Store) publish(man *manifest, prev *view) error {
	fi, err := s.data.Stat()
	if err != nil {
		return fmt.Errorf("statestore: %w", err)
	}
	win, err := mapFile(s.data, prev.win, fi.Size())
	if err != nil {
		return err
	}
	if cap(win) != cap(prev.win) {
		s.windows = append(s.windows, win[:cap(win)])
	}
	v := &view{man: man, win: win, verified: make([]atomic.Uint32, (len(man.Snaps)*len(man.Fields)+31)/32)}
	for i := range prev.verified {
		v.verified[i].Store(prev.verified[i].Load())
	}
	s.v.Store(v)
	return nil
}

// Refresh re-reads the manifest, picking up snapshots a live Writer has
// committed since Open (or the last Refresh). Committed offsets only ever
// grow, so the window is extended — inside its reservation when the file
// still fits, by a new and larger mapping when it does not — and readers
// never see holes.
func (s *Store) Refresh() error {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if s.closed {
		return fmt.Errorf("statestore: Refresh: %w", ErrClosed)
	}
	man, err := readManifest(s.dir)
	if err != nil {
		return err
	}
	s.refresh.Lock()
	defer s.refresh.Unlock()
	// Never move backwards: a torn manifest replaced by an older commit
	// (impossible under the atomic-rename discipline, but cheap to guard)
	// must not shrink the index under a concurrent query.
	if cur := s.v.Load(); len(man.Snaps) > len(cur.man.Snaps) {
		if err := s.publish(man, cur); err != nil {
			return err
		}
	}
	count(s.obs, "serve.refresh", 1)
	return nil
}

// Close unmaps the data file and releases its handle once every query in
// flight has returned; queries that arrive later get ErrClosed.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil
	}
	s.closed = true
	err := s.data.Close()
	for _, w := range s.windows {
		if uerr := unmapFile(w); err == nil {
			err = uerr
		}
	}
	s.windows = nil
	return err
}

// begin pins the store open for one query and returns the view it runs
// against; the caller releases with s.mu.RUnlock.
func (s *Store) begin() (*view, error) {
	s.mu.RLock()
	if s.closed {
		s.mu.RUnlock()
		return nil, ErrClosed
	}
	return s.v.Load(), nil
}

// Snapshots returns the number of committed snapshots visible to queries.
func (s *Store) Snapshots() int { return len(s.v.Load().man.Snaps) }

// Group returns the quantization group size of the stored encodings.
func (s *Store) Group() int { return s.v.Load().man.Group }

// Fields returns the store schema.
func (s *Store) Fields() []FieldInfo {
	return append([]FieldInfo(nil), s.v.Load().man.Fields...)
}

// Meta returns a snapshot's identity.
func (s *Store) Meta(snap int) (step int, simTime float64, err error) {
	m := s.v.Load().man
	if err := m.checkSnap(snap); err != nil {
		return 0, 0, err
	}
	return int(m.Snaps[snap].Step), m.Snaps[snap].SimTime, nil
}

// cellField resolves a field name and checks that cell is one of its cells.
func (m *manifest) cellField(field string, cell int) (fi int, err error) {
	fi, err = fieldIndex(m.Fields, field)
	if err != nil {
		return 0, err
	}
	if elems := m.Fields[fi].Elems; cell < 0 || cell >= elems {
		return 0, fmt.Errorf("statestore: cell %d outside field %q [0, %d)", cell, field, elems)
	}
	return fi, nil
}

func (m *manifest) checkSnap(snap int) error {
	if snap < 0 || snap >= len(m.Snaps) {
		return fmt.Errorf("statestore: snapshot %d outside [0, %d)", snap, len(m.Snaps))
	}
	return nil
}

// blob returns the bytes of one field of one snapshot: bounds-checked
// against the file size the view was built at, and CRC-verified the first
// time anything touches them. t tallies the touch: a hit is a blob already
// verified, a miss one that had to be checksummed.
func (s *Store) blob(v *view, snap, fi int, t *touches) ([]byte, error) {
	f, sm := &v.man.Fields[fi], &v.man.Snaps[snap]
	off, end := sm.Off[fi], sm.Off[fi]+blobLen(f.Elems, v.man.Group)
	if end > int64(len(v.win)) {
		return nil, fmt.Errorf("statestore: %q of snapshot %d ends at byte %d of a %d-byte data file: %w",
			f.Name, snap, end, len(v.win), ErrTruncated)
	}
	b := v.win[off:end:end]
	bit := snap*len(v.man.Fields) + fi
	word, mask := &v.verified[bit/32], uint32(1)<<(bit%32)
	if word.Load()&mask != 0 {
		t.hits++
		return b, nil
	}
	t.misses++
	if got := crc32.Checksum(b, crcTable); got != sm.CRC[fi] {
		return nil, fmt.Errorf("statestore: %q of snapshot %d checksum %#x, manifest says %#x: %w",
			f.Name, snap, got, sm.CRC[fi], ErrCorrupt)
	}
	for old := word.Load(); !word.CompareAndSwap(old, old|mask); old = word.Load() {
	}
	return b, nil
}

// touches counts one query's blob accesses, reported to the observer once
// when the query returns. The serve.cache counters keep their names from the
// decoded-field cache the verified bits replaced.
type touches struct{ hits, misses int64 }

func (t *touches) report(o Observer) {
	if t.hits > 0 {
		count(o, "serve.cache.hits", t.hits)
	}
	if t.misses > 0 {
		count(o, "serve.cache.misses", t.misses)
	}
}

// Every function that walks a window starts with
//
//	defer recoverFault(debug.SetPanicOnFault(true), &err)
//
// so that a read of mapped bytes the file no longer backs — store.dat
// truncated under an open Store — panics on the calling goroutine instead of
// killing the process, and the panic comes back as ErrTruncated.
func recoverFault(restore bool, err *error) {
	debug.SetPanicOnFault(restore)
	r := recover()
	if r == nil {
		return
	}
	fault, ok := r.(interface{ Addr() uintptr })
	if !ok {
		panic(r)
	}
	*err = fmt.Errorf("statestore: data file no longer backs mapped address %#x: %w", fault.Addr(), ErrTruncated)
}

// The kernels below dequantize as they read. A blob is groups(elems, g)
// float64 scales followed by elems float32 values; each kernel walks the
// groups its cell range overlaps, hoists the group's scale, and forms
// float64(value)*scale — exactly precision.GroupScaled.DecodeInto's
// arithmetic, in ascending cell order.

func scaleAt(b []byte, gi int) float64 {
	return math.Float64frombits(binary.LittleEndian.Uint64(b[8*gi:]))
}

// value reads the quantized value at the head of vs.
func value(vs []byte) float64 {
	return float64(math.Float32frombits(binary.LittleEndian.Uint32(vs)))
}

func pointOf(b []byte, elems, g, cell int) float64 {
	return value(b[8*groups(elems, g)+4*cell:]) * scaleAt(b, cell/g)
}

func dequantize(dst []float64, b []byte, g int) {
	vals := b[8*groups(len(dst), g):]
	for c0, c1 := 0, 0; c0 < len(dst); c0 = c1 {
		c1 = min(c0+g, len(dst))
		scale, vs := scaleAt(b, c0/g), vals[4*c0:4*c1]
		for c := range dst[c0:c1] {
			dst[c0+c] = value(vs[4*c:]) * scale
		}
	}
}

// span is what one pass over a cell range yields: the sum, and the smallest
// and largest values with the first cell each occurs at.
type span struct {
	sum, lowest, highest    float64
	lowestCell, highestCell int
}

// spanOf scans cells [lo, hi) of a blob, touching only the groups the range
// overlaps.
func spanOf(b []byte, elems, g, lo, hi int) span {
	sum, lowest, highest := 0.0, math.Inf(1), math.Inf(-1)
	lowestCell, highestCell := -1, -1
	vals := b[8*groups(elems, g):]
	for c0, c1 := lo, 0; c0 < hi; c0 = c1 {
		c1 = min((c0/g+1)*g, hi)
		scale, c := scaleAt(b, c0/g), c0
		for vs := vals[4*c0 : 4*c1]; len(vs) >= 4; vs, c = vs[4:], c+1 {
			x := value(vs) * scale
			sum += x
			if x < lowest {
				lowest, lowestCell = x, c
			}
			if x > highest {
				highest, highestCell = x, c
			}
		}
	}
	return span{sum, lowest, highest, lowestCell, highestCell}
}

// Sample is one snapshot's contribution to a time series.
type Sample struct {
	Snap    int     `json:"snap"`
	Step    int     `json:"step"`
	SimTime float64 `json:"sim_time"`
	Value   float64 `json:"value"`
}

// Point decodes a single cell of a single snapshot from its group's scale
// and its own quantized value, matching precision.GroupScaled.DecodeInto
// bit-for-bit.
func (s *Store) Point(snap int, field string, cell int) (val float64, err error) {
	v, err := s.begin()
	if err != nil {
		return 0, err
	}
	defer s.mu.RUnlock()
	defer recoverFault(debug.SetPanicOnFault(true), &err)
	var t touches
	defer t.report(s.obs)
	m := v.man
	fi, err := m.cellField(field, cell)
	if err != nil {
		return 0, err
	}
	if err := m.checkSnap(snap); err != nil {
		return 0, err
	}
	b, err := s.blob(v, snap, fi, &t)
	if err != nil {
		return 0, err
	}
	count(s.obs, "serve.point.queries", 1)
	return pointOf(b, m.Fields[fi].Elems, m.Group, cell), nil
}

// PointSeries extracts one cell's value across every snapshot.
func (s *Store) PointSeries(field string, cell int) ([]Sample, error) {
	return s.pointSeries(context.Background(), field, cell)
}

func (s *Store) pointSeries(ctx context.Context, field string, cell int) (out []Sample, err error) {
	t0 := time.Now()
	v, err := s.begin()
	if err != nil {
		return nil, err
	}
	defer s.mu.RUnlock()
	defer recoverFault(debug.SetPanicOnFault(true), &err)
	var t touches
	defer t.report(s.obs)
	m := v.man
	fi, err := m.cellField(field, cell)
	if err != nil {
		return nil, err
	}
	elems := m.Fields[fi].Elems
	out = make([]Sample, len(m.Snaps))
	for i := range m.Snaps {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		b, err := s.blob(v, i, fi, &t)
		if err != nil {
			return nil, err
		}
		sm := &m.Snaps[i]
		out[i] = Sample{Snap: i, Step: int(sm.Step), SimTime: sm.SimTime, Value: pointOf(b, elems, m.Group, cell)}
	}
	count(s.obs, "serve.point.queries", int64(len(out)))
	observe(s.obs, "serve.point.latency_us", float64(time.Since(t0).Microseconds()))
	return out, nil
}

// RegionSample aggregates a cell range of one snapshot.
type RegionSample struct {
	Snap    int     `json:"snap"`
	Step    int     `json:"step"`
	SimTime float64 `json:"sim_time"`
	Min     float64 `json:"min"`
	Mean    float64 `json:"mean"`
	Max     float64 `json:"max"`
}

// RegionSeries aggregates cells [lo, hi) of one field across every
// snapshot, dequantizing only the groups the range touches.
func (s *Store) RegionSeries(field string, lo, hi int) ([]RegionSample, error) {
	return s.regionSeries(context.Background(), field, lo, hi)
}

func (s *Store) regionSeries(ctx context.Context, field string, lo, hi int) (out []RegionSample, err error) {
	t0 := time.Now()
	v, err := s.begin()
	if err != nil {
		return nil, err
	}
	defer s.mu.RUnlock()
	defer recoverFault(debug.SetPanicOnFault(true), &err)
	var t touches
	defer t.report(s.obs)
	m := v.man
	fi, err := fieldIndex(m.Fields, field)
	if err != nil {
		return nil, err
	}
	elems := m.Fields[fi].Elems
	if lo < 0 || hi > elems || lo >= hi {
		return nil, fmt.Errorf("statestore: region [%d, %d) outside field %q [0, %d)", lo, hi, field, elems)
	}
	out = make([]RegionSample, len(m.Snaps))
	for i := range m.Snaps {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		b, err := s.blob(v, i, fi, &t)
		if err != nil {
			return nil, err
		}
		sm := &m.Snaps[i]
		sp := spanOf(b, elems, m.Group, lo, hi)
		out[i] = RegionSample{Snap: i, Step: int(sm.Step), SimTime: sm.SimTime,
			Min: sp.lowest, Mean: sp.sum / float64(hi-lo), Max: sp.highest}
	}
	count(s.obs, "serve.region.queries", 1)
	observe(s.obs, "serve.region.latency_us", float64(time.Since(t0).Microseconds()))
	return out, nil
}

// DecodeField dequantizes one whole field of one snapshot into a fresh
// slice the caller owns.
func (s *Store) DecodeField(snap int, field string) (out []float64, err error) {
	v, err := s.begin()
	if err != nil {
		return nil, err
	}
	defer s.mu.RUnlock()
	defer recoverFault(debug.SetPanicOnFault(true), &err)
	var t touches
	defer t.report(s.obs)
	b, elems, err := s.fieldBlob(v, snap, field, &t)
	if err != nil {
		return nil, err
	}
	out = make([]float64, elems)
	dequantize(out, b, v.man.Group)
	return out, nil
}

// Diag is the derived-diagnostic record of one snapshot: the minimum
// surface pressure and maximum 10 m wind with their cells (the typhoon
// intensity proxies of Fig 6), plus the conservation-audit residuals when
// the capture recorded them.
type Diag struct {
	Snap        int     `json:"snap"`
	Step        int     `json:"step"`
	SimTime     float64 `json:"sim_time"`
	MinPs       float64 `json:"min_ps"`
	MinPsCell   int     `json:"min_ps_cell"`
	MaxWind     float64 `json:"max_wind"`
	MaxWindCell int     `json:"max_wind_cell"`
	HeatResid   float64 `json:"heat_resid"`
	FWResid     float64 `json:"fw_resid"`
}

// Diagnostic field names the capture path uses. PsField and WindField are
// required for Diagnostics; the residual fields are optional.
const (
	PsField        = "atm.ps"
	WindField      = "atm.wind10m"
	SSTField       = "ocn.sst"
	IceField       = "ice.conc"
	HeatResidField = "budget.heat_resid"
	FWResidField   = "budget.fw_resid"
)

// Diagnostics derives one snapshot's serving diagnostics from its quantized
// state.
func (s *Store) Diagnostics(snap int) (d Diag, err error) {
	t0 := time.Now()
	v, err := s.begin()
	if err != nil {
		return Diag{}, err
	}
	defer s.mu.RUnlock()
	defer recoverFault(debug.SetPanicOnFault(true), &err)
	var t touches
	defer t.report(s.obs)
	if d, err = s.diagnostics(v, snap, &t); err != nil {
		return Diag{}, err
	}
	count(s.obs, "serve.diag.queries", 1)
	observe(s.obs, "serve.diag.latency_us", float64(time.Since(t0).Microseconds()))
	return d, nil
}

// diagSeries is Diagnostics of every snapshot: the min-Ps / max-wind
// trajectory.
func (s *Store) diagSeries(ctx context.Context) (out []Diag, err error) {
	t0 := time.Now()
	v, err := s.begin()
	if err != nil {
		return nil, err
	}
	defer s.mu.RUnlock()
	defer recoverFault(debug.SetPanicOnFault(true), &err)
	var t touches
	defer t.report(s.obs)
	out = make([]Diag, len(v.man.Snaps))
	for i := range out {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		if out[i], err = s.diagnostics(v, i, &t); err != nil {
			return nil, err
		}
	}
	count(s.obs, "serve.diag.queries", int64(len(out)))
	observe(s.obs, "serve.diag.latency_us", float64(time.Since(t0).Microseconds()))
	return out, nil
}

// fieldBlob is blob by field name, with the field's length.
func (s *Store) fieldBlob(v *view, snap int, field string, t *touches) (b []byte, elems int, err error) {
	fi, err := fieldIndex(v.man.Fields, field)
	if err != nil {
		return nil, 0, err
	}
	if err := v.man.checkSnap(snap); err != nil {
		return nil, 0, err
	}
	b, err = s.blob(v, snap, fi, t)
	return b, v.man.Fields[fi].Elems, err
}

func (s *Store) diagnostics(v *view, snap int, t *touches) (Diag, error) {
	m := v.man
	if err := m.checkSnap(snap); err != nil {
		return Diag{}, err
	}
	d := Diag{Snap: snap, Step: int(m.Snaps[snap].Step), SimTime: m.Snaps[snap].SimTime}
	ps, elems, err := s.fieldBlob(v, snap, PsField, t)
	if err != nil {
		return Diag{}, err
	}
	sp := spanOf(ps, elems, m.Group, 0, elems)
	d.MinPs, d.MinPsCell = sp.lowest, sp.lowestCell
	wind, elems, err := s.fieldBlob(v, snap, WindField, t)
	if err != nil {
		return Diag{}, err
	}
	sp = spanOf(wind, elems, m.Group, 0, elems)
	d.MaxWind, d.MaxWindCell = sp.highest, sp.highestCell
	for _, resid := range []struct {
		field string
		dst   *float64
	}{{HeatResidField, &d.HeatResid}, {FWResidField, &d.FWResid}} {
		if _, err := fieldIndex(m.Fields, resid.field); err != nil {
			continue // the capture ran without the audit
		}
		b, elems, err := s.fieldBlob(v, snap, resid.field, t)
		if err != nil {
			return Diag{}, err
		}
		*resid.dst = pointOf(b, elems, m.Group, 0)
	}
	return d, nil
}
