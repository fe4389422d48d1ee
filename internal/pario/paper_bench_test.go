package pario_test

// The paper's §5.2.5 experiment (E5): single file vs subfiles.
//
//	go test -run '^$' -bench . ./internal/pario

import (
	"fmt"
	"testing"

	"repro/internal/par"
	"repro/internal/pario"
)

// BenchmarkParallelIO compares the single-file baseline with the
// subfile-partitioned strategy (§5.2.5).
func BenchmarkParallelIO(b *testing.B) {
	const nGlobal = 1 << 18
	const ranks = 8
	mkFields := func(c *par.Comm) []pario.Field {
		per := nGlobal / c.Size()
		start := c.Rank() * per
		data := make([]float64, per)
		for i := range data {
			data[i] = float64(start + i)
		}
		return []pario.Field{{Name: "t", Global: nGlobal, Start: start, Data: data}}
	}
	b.Run("single-file", func(b *testing.B) {
		dir := b.TempDir()
		par.Run(ranks, func(c *par.Comm) {
			for i := 0; i < b.N; i++ {
				if err := pario.WriteSingle(c, fmt.Sprintf("%s/r%d.bin", dir, i%4), mkFields(c)); err != nil {
					b.Fatal(err)
				}
			}
		})
	})
	b.Run("subfiles-4groups", func(b *testing.B) {
		dir := b.TempDir()
		par.Run(ranks, func(c *par.Comm) {
			for i := 0; i < b.N; i++ {
				if err := pario.WriteSubfiles(c, dir, 4, mkFields(c)); err != nil {
					b.Fatal(err)
				}
			}
		})
	})
}
