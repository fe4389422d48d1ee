// Package pario implements the parallel input/output strategy of §5.2.5:
// distributed fields are written either through the original single-file
// path (every rank's data funnelled through rank 0 — the baseline that
// overwhelms the file system at scale) or through the optimized
// data-partitioning path, where ranks are grouped, each group aggregates
// its members' chunks to a group leader, and the leaders write independent
// binary subfiles concurrently. Readers reassemble the global field from
// either layout bit-for-bit.
//
// The format is a simple self-describing binary layout (the paper likewise
// switches to a raw binary format to cut I/O volume and metadata pressure).
// Format v2 hardens it for the fault-tolerance layer: every field carries a
// CRC32C over its encoded bytes, the file ends in a checksummed trailer that
// detects truncation, and subfiles are written to a temporary name and
// atomically renamed into place. v1 files remain readable. Malformed input
// of either version yields typed errors (ErrCorrupt, ErrTruncated) instead
// of panics or unbounded allocations.
package pario

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"repro/internal/fault"
	"repro/internal/par"
)

// Magic identifies AP3ESM reproduction restart files.
const Magic = 0x41503352 // "AP3R"

// Version is the current format version (v2: per-field CRC32C + trailer).
const Version = 2

// TrailerMagic opens the v2 end-of-file trailer.
const TrailerMagic = 0x41503354 // "AP3T"

// Decoder guardrails: a field name, a declared global size, or a chunk that
// exceeds these is corrupt by definition, which bounds what a hostile or
// truncated file can make the reader allocate.
const (
	maxNameLen     = 4096
	maxGlobalElems = 1 << 24 // 16M elements (128 MiB) per field, far above any runnable config
)

// Typed decode errors. Wrapped errors carry file/offset detail; match with
// errors.Is.
var (
	// ErrCorrupt reports bytes that cannot be a well-formed file of any
	// supported version: bad magic, checksum mismatch, or impossible sizes.
	ErrCorrupt = errors.New("corrupt restart data")
	// ErrTruncated reports a file that ends before its own declared
	// structure does — the torn-write signature.
	ErrTruncated = errors.New("truncated restart data")
)

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// Field is one named local chunk of a global 1-D-indexed variable
// (multidimensional fields are flattened by the caller; the format only
// needs the global offset).
type Field struct {
	Name   string
	Global int // global element count
	Start  int // this rank's first global element
	Data   []float64
}

type chunk struct {
	Start int
	Data  []float64
}

// encodeFile renders one subfile in the given format version. v2 appends a
// CRC32C after each field's encoded bytes and a (magic, payload length,
// CRC32C) trailer over the whole payload. Field names and chunks are sorted,
// so the encoding is deterministic: identical state yields identical bytes.
// The exact size is summed first and the image filled in place, so encoding
// a restart set costs one allocation and no copies.
func encodeFile(global map[string]int, chunks map[string][]chunk, version int) []byte {
	names := make([]string, 0, len(chunks))
	for n := range chunks {
		names = append(names, n)
	}
	sort.Strings(names)

	size := 12
	for _, name := range names {
		cs := chunks[name]
		sort.Slice(cs, func(i, j int) bool { return cs[i].Start < cs[j].Start })
		size += 4 + len(name) + 8 + 4
		for _, c := range cs {
			size += 16 + 8*len(c.Data)
		}
		if version >= 2 {
			size += 4
		}
	}
	if version >= 2 {
		size += 16
	}

	le := binary.LittleEndian
	buf := make([]byte, size)
	off := 0
	u32 := func(v uint32) { le.PutUint32(buf[off:], v); off += 4 }
	u64 := func(v uint64) { le.PutUint64(buf[off:], v); off += 8 }
	u32(Magic)
	u32(uint32(version))
	u32(uint32(len(names)))
	for _, name := range names {
		fieldStart := off
		u32(uint32(len(name)))
		off += copy(buf[off:], name)
		u64(uint64(global[name]))
		cs := chunks[name]
		u32(uint32(len(cs)))
		for _, c := range cs {
			u64(uint64(c.Start))
			u64(uint64(len(c.Data)))
			dst := buf[off : off+8*len(c.Data)]
			for i, v := range c.Data {
				le.PutUint64(dst[8*i:], math.Float64bits(v))
			}
			off += len(dst)
		}
		if version >= 2 {
			u32(crc32.Checksum(buf[fieldStart:off], crcTable))
		}
	}
	if version >= 2 {
		payload := off
		u32(TrailerMagic)
		u64(uint64(payload))
		u32(crc32.Checksum(buf[:payload], crcTable))
	}
	return buf
}

// writeFile writes one subfile holding, for every field, a sorted set of
// chunks. The bytes land in a temporary sibling that is atomically renamed
// into place, so a crash mid-write never leaves a partial file under the
// final name. The "pario.write" fault site covers the whole operation:
// io-error fails it, torn and bitflip corrupt the bytes that reach disk
// (which the v2 checksums then catch on read), and stall delays it.
func writeFile(path string, global map[string]int, chunks map[string][]chunk) error {
	data := encodeFile(global, chunks, Version)
	if f := fault.Point("pario.write", fault.AnyRank); f != nil {
		if f.Kind == fault.IOError {
			return fmt.Errorf("pario: writing %s: %w", path, f.Error())
		}
		f.Sleep()
		data = f.Corrupt(data)
	}
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, data, 0o644); err != nil {
		return fmt.Errorf("pario: %w", err)
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("pario: %w", err)
	}
	return nil
}

// byteReader walks an in-memory file image with explicit bounds checks;
// running past the end is ErrTruncated, never a panic.
type byteReader struct {
	data []byte
	off  int
}

func (r *byteReader) remaining() int { return len(r.data) - r.off }

func (r *byteReader) need(n int, what string) ([]byte, error) {
	if n < 0 || r.remaining() < n {
		return nil, fmt.Errorf("pario: %s at offset %d needs %d bytes, %d left: %w",
			what, r.off, n, r.remaining(), ErrTruncated)
	}
	b := r.data[r.off : r.off+n]
	r.off += n
	return b, nil
}

func (r *byteReader) u32(what string) (uint32, error) {
	b, err := r.need(4, what)
	if err != nil {
		return 0, err
	}
	return binary.LittleEndian.Uint32(b), nil
}

func (r *byteReader) u64(what string) (uint64, error) {
	b, err := r.need(8, what)
	if err != nil {
		return 0, err
	}
	return binary.LittleEndian.Uint64(b), nil
}

// decodeFile parses a v1 or v2 subfile image. Every structural quantity is
// validated against the bytes actually present before any allocation, so a
// corrupt or truncated image costs O(len(data)) and returns ErrCorrupt or
// ErrTruncated rather than panicking or over-allocating.
func decodeFile(data []byte) (map[string]int, map[string][]chunk, error) {
	r := &byteReader{data: data}
	magic, err := r.u32("magic")
	if err != nil {
		return nil, nil, err
	}
	if magic != Magic {
		return nil, nil, fmt.Errorf("pario: not an AP3R file (magic %#x): %w", magic, ErrCorrupt)
	}
	version, err := r.u32("version")
	if err != nil {
		return nil, nil, err
	}
	if version != 1 && version != 2 {
		return nil, nil, fmt.Errorf("pario: unsupported version %d: %w", version, ErrCorrupt)
	}
	if version >= 2 {
		// Validate the trailer before trusting any interior structure: it is
		// the cheap whole-file truncation and corruption detector.
		const trailerLen = 4 + 8 + 4
		if len(data) < trailerLen {
			return nil, nil, fmt.Errorf("pario: %d bytes cannot hold a v2 trailer: %w", len(data), ErrTruncated)
		}
		t := &byteReader{data: data, off: len(data) - trailerLen}
		tmagic, _ := t.u32("trailer magic")
		plen, _ := t.u64("trailer length")
		fcrc, _ := t.u32("trailer crc")
		payload := len(data) - trailerLen
		if tmagic != TrailerMagic || plen != uint64(payload) {
			return nil, nil, fmt.Errorf("pario: trailer missing or displaced (magic %#x, declared %d vs %d payload bytes): %w",
				tmagic, plen, payload, ErrTruncated)
		}
		if got := crc32.Checksum(data[:payload], crcTable); got != fcrc {
			return nil, nil, fmt.Errorf("pario: file checksum %#x, trailer says %#x: %w", got, fcrc, ErrCorrupt)
		}
		r.data = data[:payload] // fields must not read into the trailer
	}
	nfields, err := r.u32("field count")
	if err != nil {
		return nil, nil, err
	}
	// Each field needs at least a name length, a global size, and a chunk
	// count — reject counts the remaining bytes cannot possibly hold.
	if int64(nfields) > int64(r.remaining())/16+1 {
		return nil, nil, fmt.Errorf("pario: %d fields declared in %d bytes: %w", nfields, r.remaining(), ErrCorrupt)
	}
	global := make(map[string]int)
	chunks := make(map[string][]chunk)
	for i := uint32(0); i < nfields; i++ {
		fieldStart := r.off
		nameLen, err := r.u32("name length")
		if err != nil {
			return nil, nil, err
		}
		if nameLen > maxNameLen {
			return nil, nil, fmt.Errorf("pario: field name of %d bytes: %w", nameLen, ErrCorrupt)
		}
		nameBuf, err := r.need(int(nameLen), "field name")
		if err != nil {
			return nil, nil, err
		}
		name := string(nameBuf)
		glob, err := r.u64("global size")
		if err != nil {
			return nil, nil, err
		}
		if glob > maxGlobalElems {
			return nil, nil, fmt.Errorf("pario: field %q declares %d global elements: %w", name, glob, ErrCorrupt)
		}
		nchunks, err := r.u32("chunk count")
		if err != nil {
			return nil, nil, err
		}
		if int64(nchunks) > int64(r.remaining())/16+1 {
			return nil, nil, fmt.Errorf("pario: %d chunks declared in %d bytes: %w", nchunks, r.remaining(), ErrCorrupt)
		}
		if _, dup := global[name]; dup {
			return nil, nil, fmt.Errorf("pario: field %q appears twice: %w", name, ErrCorrupt)
		}
		global[name] = int(glob)
		for ci := uint32(0); ci < nchunks; ci++ {
			start, err := r.u64("chunk start")
			if err != nil {
				return nil, nil, err
			}
			length, err := r.u64("chunk length")
			if err != nil {
				return nil, nil, err
			}
			if length > glob || start > glob || start+length > glob {
				return nil, nil, fmt.Errorf("pario: field %q chunk [%d,%d) outside global size %d: %w",
					name, start, start+length, glob, ErrCorrupt)
			}
			raw, err := r.need(int(length)*8, "chunk data")
			if err != nil {
				return nil, nil, err
			}
			vals := make([]float64, length)
			for j := range vals {
				vals[j] = math.Float64frombits(binary.LittleEndian.Uint64(raw[8*j:]))
			}
			chunks[name] = append(chunks[name], chunk{Start: int(start), Data: vals})
		}
		if version >= 2 {
			fieldCRC := crc32.Checksum(r.data[fieldStart:r.off], crcTable)
			stored, err := r.u32("field crc")
			if err != nil {
				return nil, nil, err
			}
			if stored != fieldCRC {
				return nil, nil, fmt.Errorf("pario: field %q checksum %#x, stored %#x: %w",
					name, fieldCRC, stored, ErrCorrupt)
			}
		}
	}
	return global, chunks, nil
}

// readFile parses one subfile from disk.
func readFile(path string) (map[string]int, map[string][]chunk, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, nil, fmt.Errorf("pario: reading %s: %w", path, err)
	}
	global, chunks, err := decodeFile(data)
	if err != nil {
		return nil, nil, fmt.Errorf("%w (file %s)", err, path)
	}
	return global, chunks, nil
}

const ioTag = 8200

// Observer is the instrumentation hook consumed by the I/O layer — the
// structural subset of obs.Observer it needs, declared locally so pario
// does not import obs.
type Observer interface {
	AddCount(name string, delta int64)
	SetGauge(name string, v float64)
}

// recordLocal counts this rank's contribution to a write: field count and
// flattened data bytes under the given path prefix.
func recordLocal(o Observer, prefix string, fields []Field) {
	if o == nil {
		return
	}
	var bytes int64
	for _, f := range fields {
		bytes += int64(8 * len(f.Data))
	}
	o.AddCount(prefix+".calls", 1)
	o.AddCount(prefix+".fields", int64(len(fields)))
	o.AddCount(prefix+".bytes", bytes)
}

// recordAggregate counts the volume funnelled through an aggregating
// leader (rank 0 of the write communicator).
func recordAggregate(o Observer, prefix string, chunks map[string][]chunk) {
	if o == nil {
		return
	}
	var bytes int64
	for _, cs := range chunks {
		for _, c := range cs {
			bytes += int64(8 * len(c.Data))
		}
	}
	o.AddCount(prefix+".aggregated_bytes", bytes)
}

// WriteSingle is the baseline path: every rank sends its chunks to rank 0,
// which writes one file. Returns only on rank 0 errors; other ranks always
// return nil after sending.
func WriteSingle(c *par.Comm, path string, fields []Field) error {
	return WriteSingleTo(c, path, fields, nil)
}

// WriteSingleTo is WriteSingle reporting aggregation sizes to an observer
// ("pario.single.*" counters).
func WriteSingleTo(c *par.Comm, path string, fields []Field, o Observer) error {
	type payload struct {
		Name   string
		Global int
		Start  int
		Data   []float64
	}
	recordLocal(o, "pario.single", fields)
	var mine []payload
	for _, fd := range fields {
		mine = append(mine, payload{fd.Name, fd.Global, fd.Start, fd.Data})
	}
	all := par.Gather(c, 0, mine)
	if c.Rank() != 0 {
		return nil
	}
	global := make(map[string]int)
	chunks := make(map[string][]chunk)
	for _, rankFields := range all {
		for _, p := range rankFields {
			global[p.Name] = p.Global
			chunks[p.Name] = append(chunks[p.Name], chunk{Start: p.Start, Data: p.Data})
		}
	}
	recordAggregate(o, "pario.single", chunks)
	return writeFile(path, global, chunks)
}

// WriteSubfiles is the optimized path: ranks are divided into nGroups
// groups; each group's leader aggregates the group's chunks and writes
// dir/part-<g>.bin. All leaders write concurrently.
func WriteSubfiles(c *par.Comm, dir string, nGroups int, fields []Field) error {
	return WriteSubfilesTo(c, dir, nGroups, fields, nil)
}

// WriteSubfilesTo is WriteSubfiles reporting aggregation sizes to an
// observer ("pario.subfile.*" counters plus the group fan-in gauges).
func WriteSubfilesTo(c *par.Comm, dir string, nGroups int, fields []Field, o Observer) error {
	if nGroups < 1 || nGroups > c.Size() {
		return fmt.Errorf("pario: %d groups for %d ranks", nGroups, c.Size())
	}
	group := c.Rank() * nGroups / c.Size()
	sub := c.Split(group, c.Rank())
	recordLocal(o, "pario.subfile", fields)
	if o != nil {
		o.SetGauge("pario.subfile.groups", float64(nGroups))
		o.SetGauge("pario.subfile.group_ranks", float64(sub.Size()))
	}

	type payload struct {
		Name   string
		Global int
		Start  int
		Data   []float64
	}
	var mine []payload
	for _, fd := range fields {
		mine = append(mine, payload{fd.Name, fd.Global, fd.Start, fd.Data})
	}
	all := par.Gather(sub, 0, mine)
	if sub.Rank() != 0 {
		c.Barrier()
		return nil
	}
	global := make(map[string]int)
	chunks := make(map[string][]chunk)
	for _, rankFields := range all {
		for _, p := range rankFields {
			global[p.Name] = p.Global
			chunks[p.Name] = append(chunks[p.Name], chunk{Start: p.Start, Data: p.Data})
		}
	}
	recordAggregate(o, "pario.subfile", chunks)
	err := writeFile(filepath.Join(dir, fmt.Sprintf("part-%d.bin", group)), global, chunks)
	c.Barrier()
	return err
}

// ReadGlobal reassembles global fields from one or more files (a single
// file or a subfile set). Missing elements are an error; overlapping
// chunks are an error.
func ReadGlobal(paths []string) (map[string][]float64, error) {
	if len(paths) == 0 {
		return nil, fmt.Errorf("pario: no files")
	}
	out := make(map[string][]float64)
	filled := make(map[string][]bool)
	for _, p := range paths {
		global, chunks, err := readFile(p)
		if err != nil {
			return nil, err
		}
		for name, cs := range chunks {
			if _, ok := out[name]; !ok {
				out[name] = make([]float64, global[name])
				for i := range out[name] {
					out[name][i] = math.NaN()
				}
				filled[name] = make([]bool, global[name])
			}
			for _, c := range cs {
				for i, v := range c.Data {
					gi := c.Start + i
					if gi >= len(out[name]) {
						return nil, fmt.Errorf("pario: %s chunk exceeds global size (file %s)", name, p)
					}
					if filled[name][gi] {
						return nil, fmt.Errorf("pario: %s element %d written twice (file %s)", name, gi, p)
					}
					out[name][gi] = v
					filled[name][gi] = true
				}
			}
		}
	}
	for name, fl := range filled {
		for i, ok := range fl {
			if !ok {
				return nil, fmt.Errorf("pario: %s element %d missing (files %s)", name, i, strings.Join(paths, ", "))
			}
		}
	}
	return out, nil
}

// SubfilePaths lists the part files a WriteSubfiles call produced.
func SubfilePaths(dir string, nGroups int) []string {
	out := make([]string, nGroups)
	for g := range out {
		out[g] = filepath.Join(dir, fmt.Sprintf("part-%d.bin", g))
	}
	return out
}
