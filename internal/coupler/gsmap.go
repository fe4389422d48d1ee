package coupler

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"sort"

	"repro/internal/par"
)

// Segment is one run of consecutive global indices owned by one process.
type Segment struct {
	Start  int // first global index of the run
	Length int
	PE     int // owning rank
}

// GSMap is MCT's global segment map: a globally-replicated, run-length
// compressed description of how a grid's global index space is distributed
// over processes. Building it online requires an allgather of every rank's
// index list — the memory- and time-consuming step that §5.2.4 moves
// offline on Sunway, where a core group cannot hold the full map during
// initialization.
type GSMap struct {
	GlobalSize int
	NProcs     int
	Segments   []Segment // sorted by Start; non-overlapping
}

// NewGSMap builds the map online: every rank contributes the sorted list of
// global indices it owns; the lists are allgathered and compressed. Every
// global index in [0, globalSize) must be owned by exactly one rank.
func NewGSMap(c *par.Comm, localIndices []int, globalSize int) (*GSMap, error) {
	mine := append([]int(nil), localIndices...)
	sort.Ints(mine)
	all := par.Allgather(c, mine)
	return buildGSMap(all, globalSize, false)
}

// OfflineGSMap builds the map without communication from a decomposition
// function (global index -> owning rank), the offline preprocessing path of
// §5.2.4. All ranks calling it with the same function get identical maps.
// An owner of -1 marks an index assigned to no rank (a land-eliminated
// block); such indices are simply absent from the map and are never routed.
func OfflineGSMap(owner func(gi int) int, globalSize, nprocs int) (*GSMap, error) {
	lists := make([][]int, nprocs)
	gaps := false
	for gi := 0; gi < globalSize; gi++ {
		pe := owner(gi)
		if pe == -1 {
			gaps = true
			continue
		}
		if pe < -1 || pe >= nprocs {
			return nil, fmt.Errorf("coupler: owner(%d) = %d out of range", gi, pe)
		}
		lists[pe] = append(lists[pe], gi)
	}
	return buildGSMap(lists, globalSize, gaps)
}

func buildGSMap(lists [][]int, globalSize int, allowGaps bool) (*GSMap, error) {
	m := &GSMap{GlobalSize: globalSize, NProcs: len(lists)}
	seen := make([]bool, globalSize)
	for pe, list := range lists {
		for i := 0; i < len(list); {
			start := list[i]
			if start < 0 || start >= globalSize {
				return nil, fmt.Errorf("coupler: global index %d out of range [0,%d)", start, globalSize)
			}
			j := i
			for j+1 < len(list) && list[j+1] == list[j]+1 {
				j++
			}
			length := j - i + 1
			for k := start; k < start+length; k++ {
				if seen[k] {
					return nil, fmt.Errorf("coupler: global index %d owned twice", k)
				}
				seen[k] = true
			}
			m.Segments = append(m.Segments, Segment{Start: start, Length: length, PE: pe})
			i = j + 1
		}
	}
	if !allowGaps {
		for gi, ok := range seen {
			if !ok {
				return nil, fmt.Errorf("coupler: global index %d unowned", gi)
			}
		}
	}
	sort.Slice(m.Segments, func(a, b int) bool { return m.Segments[a].Start < m.Segments[b].Start })
	return m, nil
}

// Owner returns the rank owning a global index.
func (m *GSMap) Owner(gi int) (int, error) {
	if gi < 0 || gi >= m.GlobalSize {
		return -1, fmt.Errorf("coupler: index %d out of range [0,%d)", gi, m.GlobalSize)
	}
	// Binary search for the segment containing gi.
	lo, hi := 0, len(m.Segments)-1
	for lo <= hi {
		mid := (lo + hi) / 2
		s := m.Segments[mid]
		switch {
		case gi < s.Start:
			hi = mid - 1
		case gi >= s.Start+s.Length:
			lo = mid + 1
		default:
			return s.PE, nil
		}
	}
	return -1, fmt.Errorf("coupler: index %d not covered (corrupt GSMap)", gi)
}

// LocalIndices returns the sorted global indices owned by a rank.
func (m *GSMap) LocalIndices(pe int) []int {
	var out []int
	for _, s := range m.Segments {
		if s.PE != pe {
			continue
		}
		for k := 0; k < s.Length; k++ {
			out = append(out, s.Start+k)
		}
	}
	return out
}

// Bytes returns the in-memory footprint of the segment table — the quantity
// that overflows a Sunway core group during online initialization at scale.
func (m *GSMap) Bytes() int { return 24 * len(m.Segments) }

// Encode serializes the map for offline preprocessing (written once by the
// preprocessing tool, read by every rank at startup).
func (m *GSMap) Encode() ([]byte, error) {
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(m); err != nil {
		return nil, fmt.Errorf("coupler: encoding GSMap: %w", err)
	}
	return buf.Bytes(), nil
}

// DecodeGSMap deserializes a map produced by Encode.
func DecodeGSMap(data []byte) (*GSMap, error) {
	var m GSMap
	if err := gob.NewDecoder(bytes.NewReader(data)).Decode(&m); err != nil {
		return nil, fmt.Errorf("coupler: decoding GSMap: %w", err)
	}
	return &m, nil
}
