package pario

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"
	"math/rand"
	"sort"
	"testing"
)

// appendEncodeFile is the encoder as it was before the image was presized:
// every field grown onto the buffer with append. It is kept verbatim as the
// oracle the presized encodeFile must reproduce byte for byte.
func appendEncodeFile(global map[string]int, chunks map[string][]chunk, version int) []byte {
	names := make([]string, 0, len(chunks))
	for n := range chunks {
		names = append(names, n)
	}
	sort.Strings(names)

	var buf []byte
	u32 := func(v uint32) { buf = binary.LittleEndian.AppendUint32(buf, v) }
	u64 := func(v uint64) { buf = binary.LittleEndian.AppendUint64(buf, v) }
	u32(Magic)
	u32(uint32(version))
	u32(uint32(len(names)))
	for _, name := range names {
		fieldStart := len(buf)
		u32(uint32(len(name)))
		buf = append(buf, name...)
		u64(uint64(global[name]))
		cs := chunks[name]
		sort.Slice(cs, func(i, j int) bool { return cs[i].Start < cs[j].Start })
		u32(uint32(len(cs)))
		for _, c := range cs {
			u64(uint64(c.Start))
			u64(uint64(len(c.Data)))
			for _, v := range c.Data {
				u64(math.Float64bits(v))
			}
		}
		if version >= 2 {
			u32(crc32.Checksum(buf[fieldStart:], crcTable))
		}
	}
	if version >= 2 {
		payload := len(buf)
		u32(TrailerMagic)
		u64(uint64(payload))
		u32(crc32.Checksum(buf[:payload], crcTable))
	}
	return buf
}

// randomChunks draws a field set the way the restart writer produces one:
// each field's global index space cut into chunks of random length, handed
// over in a shuffled order, with NaN, ±Inf, -0 and subnormals among the
// values. Empty fields and empty chunks are included.
func randomChunks(rng *rand.Rand) (map[string]int, map[string][]chunk) {
	special := []float64{math.NaN(), math.Inf(1), math.Inf(-1), math.Copysign(0, -1), 5e-324, math.MaxFloat64}
	global := map[string]int{}
	chunks := map[string][]chunk{}
	for f := rng.Intn(6); f >= 0; f-- {
		name := fmt.Sprintf("f%d.%x", f, rng.Int63())[:3+rng.Intn(8)]
		n := rng.Intn(300)
		global[name] = n
		var cs []chunk
		for start := 0; start < n || len(cs) == 0; {
			l := min(rng.Intn(40), n-start)
			data := make([]float64, l)
			for i := range data {
				if rng.Intn(20) == 0 {
					data[i] = special[rng.Intn(len(special))]
				} else {
					data[i] = rng.NormFloat64() * math.Pow(10, float64(rng.Intn(20)-10))
				}
			}
			cs = append(cs, chunk{Start: start, Data: data})
			start += l
			if l == 0 && start < n {
				start++ // an empty chunk still advances; the element it skips stays uncovered
			}
		}
		rng.Shuffle(len(cs), func(i, j int) { cs[i], cs[j] = cs[j], cs[i] })
		chunks[name] = cs
	}
	return global, chunks
}

// cloneChunks copies the chunk lists (encoders sort them in place), keeping
// the shuffled order.
func cloneChunks(chunks map[string][]chunk) map[string][]chunk {
	out := make(map[string][]chunk, len(chunks))
	for name, cs := range chunks {
		out[name] = append([]chunk(nil), cs...)
	}
	return out
}

// The presized encoder writes exactly the bytes the append encoder wrote,
// for both format versions, on random fields and chunk orders.
func TestEncodeFileMatchesAppendOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(26))
	for trial := 0; trial < 300; trial++ {
		global, chunks := randomChunks(rng)
		for _, version := range []int{1, 2} {
			want := appendEncodeFile(global, cloneChunks(chunks), version)
			got := encodeFile(global, cloneChunks(chunks), version)
			if !bytes.Equal(got, want) {
				t.Fatalf("trial %d, v%d: presized encoding (%d bytes) differs from the append oracle (%d bytes)",
					trial, version, len(got), len(want))
			}
			if len(got) != cap(got) {
				t.Fatalf("trial %d, v%d: image of %d bytes in a %d-byte buffer, want an exact presize",
					trial, version, len(got), cap(got))
			}
		}
	}
}
