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
		"1v1":   {"102e7a6a73b1e80f", "f1c863972e6036db"},
		"3v2":   {"5c8a29d33a5421a6", "f7e666fdab910e45"},
		"6v3":   {"ebdda1304b474815", "461ca6cd5c0e9db2"},
		"10v5":  {"283fd698d237260d", "f7414b2790a97d96"},
		"25v10": {"f24c476b6c4d3d9f", "98a25a6cb660fce8"},
	}
	for _, cfg := range Configurations() {
		par.Run(1, func(c *par.Comm) {
			e, err := NewWithOptions(cfg, c, WithSpace(pp.Serial{}), WithAudit(true))
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
