package statestore

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"
)

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// snapMeta is one snapshot's index entry: identity plus, per schema field,
// the blob offset into store.dat and the CRC32C over the blob bytes. Blob
// lengths are derivable from the schema (blobLen), so they are not stored.
type snapMeta struct {
	Step    int64
	SimTime float64
	Off     []int64
	CRC     []uint32
}

// manifest is the decoded index of a store.
type manifest struct {
	Group  int
	Fields []FieldInfo
	Snaps  []snapMeta
}

// encodeManifest renders the index bytes: header, schema, snapshot table,
// and the checksummed trailer that detects truncation (the pario v2
// discipline — validate the trailer before trusting any interior
// structure).
func encodeManifest(m *manifest) []byte {
	var buf []byte
	u32 := func(v uint32) { buf = binary.LittleEndian.AppendUint32(buf, v) }
	u64 := func(v uint64) { buf = binary.LittleEndian.AppendUint64(buf, v) }
	u32(Magic)
	u32(Version)
	u32(uint32(m.Group))
	u32(uint32(len(m.Fields)))
	for _, f := range m.Fields {
		u32(uint32(len(f.Name)))
		buf = append(buf, f.Name...)
		u64(uint64(f.Elems))
	}
	u64(uint64(len(m.Snaps)))
	for _, s := range m.Snaps {
		u64(uint64(s.Step))
		u64(math.Float64bits(s.SimTime))
		for i := range m.Fields {
			u64(uint64(s.Off[i]))
			u32(s.CRC[i])
		}
	}
	payload := len(buf)
	u32(TrailerMagic)
	u64(uint64(payload))
	u32(crc32.Checksum(buf[:payload], crcTable))
	return buf
}

// byteReader walks an in-memory manifest image with explicit bounds checks;
// running past the end is ErrTruncated, never a panic. It is the same
// decoder discipline as pario's restart reader, duplicated locally because
// the two formats must stay independently evolvable.
type byteReader struct {
	data []byte
	off  int
}

func (r *byteReader) remaining() int { return len(r.data) - r.off }

func (r *byteReader) need(n int, what string) ([]byte, error) {
	if n < 0 || r.remaining() < n {
		return nil, fmt.Errorf("statestore: %s at offset %d needs %d bytes, %d left: %w",
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

// decodeManifest parses a manifest image. Every structural quantity is
// validated against the bytes actually present before any allocation, so a
// corrupt or truncated image costs O(len(data)) and returns ErrCorrupt or
// ErrTruncated rather than panicking or over-allocating.
func decodeManifest(data []byte) (*manifest, error) {
	r := &byteReader{data: data}
	magic, err := r.u32("magic")
	if err != nil {
		return nil, err
	}
	if magic != Magic {
		return nil, fmt.Errorf("statestore: not a state store manifest (magic %#x): %w", magic, ErrCorrupt)
	}
	version, err := r.u32("version")
	if err != nil {
		return nil, err
	}
	if version != Version {
		return nil, fmt.Errorf("statestore: unsupported manifest version %d: %w", version, ErrCorrupt)
	}
	// Validate the trailer before trusting any interior structure: it is the
	// cheap whole-file truncation and corruption detector.
	const trailerLen = 4 + 8 + 4
	if len(data) < trailerLen {
		return nil, fmt.Errorf("statestore: %d bytes cannot hold a manifest trailer: %w", len(data), ErrTruncated)
	}
	t := &byteReader{data: data, off: len(data) - trailerLen}
	tmagic, _ := t.u32("trailer magic")
	plen, _ := t.u64("trailer length")
	fcrc, _ := t.u32("trailer crc")
	payload := len(data) - trailerLen
	if tmagic != TrailerMagic || plen != uint64(payload) {
		return nil, fmt.Errorf("statestore: manifest trailer missing or displaced (magic %#x, declared %d vs %d payload bytes): %w",
			tmagic, plen, payload, ErrTruncated)
	}
	if got := crc32.Checksum(data[:payload], crcTable); got != fcrc {
		return nil, fmt.Errorf("statestore: manifest checksum %#x, trailer says %#x: %w", got, fcrc, ErrCorrupt)
	}
	r.data = data[:payload] // the body must not read into the trailer

	group, err := r.u32("group size")
	if err != nil {
		return nil, err
	}
	if group == 0 || group > maxFieldElem {
		return nil, fmt.Errorf("statestore: quantization group size %d: %w", group, ErrCorrupt)
	}
	nfields, err := r.u32("field count")
	if err != nil {
		return nil, err
	}
	if nfields == 0 || nfields > maxFields {
		return nil, fmt.Errorf("statestore: %d schema fields: %w", nfields, ErrCorrupt)
	}
	m := &manifest{Group: int(group), Fields: make([]FieldInfo, 0, nfields)}
	seen := make(map[string]bool, nfields)
	for i := uint32(0); i < nfields; i++ {
		nameLen, err := r.u32("field name length")
		if err != nil {
			return nil, err
		}
		if nameLen == 0 || nameLen > maxNameLen {
			return nil, fmt.Errorf("statestore: field name of %d bytes: %w", nameLen, ErrCorrupt)
		}
		nameBuf, err := r.need(int(nameLen), "field name")
		if err != nil {
			return nil, err
		}
		name := string(nameBuf)
		if seen[name] {
			return nil, fmt.Errorf("statestore: field %q appears twice in schema: %w", name, ErrCorrupt)
		}
		seen[name] = true
		elems, err := r.u64("field element count")
		if err != nil {
			return nil, err
		}
		if elems == 0 || elems > maxFieldElem {
			return nil, fmt.Errorf("statestore: field %q declares %d elements: %w", name, elems, ErrCorrupt)
		}
		m.Fields = append(m.Fields, FieldInfo{Name: name, Elems: int(elems)})
	}
	nsnaps, err := r.u64("snapshot count")
	if err != nil {
		return nil, err
	}
	if nsnaps > maxSnapshots {
		return nil, fmt.Errorf("statestore: %d snapshots declared: %w", nsnaps, ErrCorrupt)
	}
	// Each snapshot entry needs 16 bytes of identity plus 12 per field —
	// reject counts the remaining bytes cannot possibly hold.
	entry := 16 + 12*int64(nfields)
	if int64(nsnaps) > int64(r.remaining())/entry+1 {
		return nil, fmt.Errorf("statestore: %d snapshots declared in %d bytes: %w", nsnaps, r.remaining(), ErrCorrupt)
	}
	m.Snaps = make([]snapMeta, 0, nsnaps)
	// Every snapshot's offsets and checksums share one allocation each.
	offs := make([]int64, int(nsnaps)*int(nfields))
	crcs := make([]uint32, int(nsnaps)*int(nfields))
	for i := uint64(0); i < nsnaps; i++ {
		step, err := r.u64("snapshot step")
		if err != nil {
			return nil, err
		}
		simBits, err := r.u64("snapshot sim time")
		if err != nil {
			return nil, err
		}
		simTime := math.Float64frombits(simBits)
		if math.IsNaN(simTime) || math.IsInf(simTime, 0) {
			return nil, fmt.Errorf("statestore: snapshot %d sim time %v: %w", i, simTime, ErrCorrupt)
		}
		s := snapMeta{
			Step:    int64(step),
			SimTime: simTime,
			Off:     offs[:nfields:nfields],
			CRC:     crcs[:nfields:nfields],
		}
		offs, crcs = offs[nfields:], crcs[nfields:]
		if s.Step < 0 {
			return nil, fmt.Errorf("statestore: snapshot %d declares step %d: %w", i, s.Step, ErrCorrupt)
		}
		for fi := range m.Fields {
			off, err := r.u64("field offset")
			if err != nil {
				return nil, err
			}
			if off > math.MaxInt64-uint64(blobLen(m.Fields[fi].Elems, m.Group)) {
				return nil, fmt.Errorf("statestore: snapshot %d field %q offset %d: %w", i, m.Fields[fi].Name, off, ErrCorrupt)
			}
			crc, err := r.u32("field crc")
			if err != nil {
				return nil, err
			}
			s.Off[fi] = int64(off)
			s.CRC[fi] = crc
		}
		m.Snaps = append(m.Snaps, s)
	}
	if r.remaining() != 0 {
		return nil, fmt.Errorf("statestore: %d trailing bytes after snapshot table: %w", r.remaining(), ErrCorrupt)
	}
	return m, nil
}
