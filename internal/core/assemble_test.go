package core

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"testing"

	"repro/internal/par"
	"repro/internal/pp"
)

// restartHash is the FNV-1a hash of every value of e's restart image.
func restartHash(t *testing.T, e *ESM) string {
	t.Helper()
	l, err := newRestartLayout(e)
	if err != nil {
		t.Error(err)
		return ""
	}
	h := fnv.New64a()
	var b [8]byte
	for _, f := range newRestartImage(l).capture(e) {
		h.Write([]byte(f.Name))
		for _, x := range f.Data {
			binary.LittleEndian.PutUint64(b[:], math.Float64bits(x))
			h.Write(b[:])
		}
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// The assembled model of every configuration, and the same model one
// coupling step later, bit for bit: the initial atmosphere, ocean, ice and
// land states, and everything assembly derives that the first step reads
// (land routing, remap weights, surface fields).
func TestAssembledStateGolden(t *testing.T) {
	want := map[string][2]string{
		"1v1":   {"d6e07d2ab7db20bb", "3842110c734cb487"},
		"3v2":   {"f7cfb1dfb514314f", "dc7e0dd6af9cf919"},
		"6v3":   {"a9a94513117b18f6", "8915a6fd57ca9f6e"},
		"10v5":  {"e0bc4cb60d06684c", "4ccab254b34b6cf8"},
		"25v10": {"c73b4179a1e3f47e", "d85dbe1b9e7368c8"},
	}
	for _, cfg := range Configurations() {
		par.Run(1, func(c *par.Comm) {
			e, err := NewWithOptions(cfg, c, WithSpace(pp.Serial{}), WithRemap(RemapCons), WithAudit(true))
			if err != nil {
				t.Error(err)
				return
			}
			got := [2]string{restartHash(t, e)}
			e.Step()
			got[1] = restartHash(t, e)
			if got != want[cfg.Label] {
				t.Errorf("%s: state hashes %v, want %v", cfg.Label, got, want[cfg.Label])
			}
		})
	}
}
