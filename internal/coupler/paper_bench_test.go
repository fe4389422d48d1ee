package coupler_test

// The paper's §5.2.4 experiment (E4): rearranger message patterns and
// router construction.
//
//	go test -run '^$' -bench . ./internal/coupler

import (
	"testing"

	"repro/internal/coupler"
	"repro/internal/par"
)

// BenchmarkCouplerRearranger compares the original all-to-all rearranger
// against the non-blocking point-to-point optimization (§5.2.4) on a
// block→cyclic redistribution.
func BenchmarkCouplerRearranger(b *testing.B) {
	const n, p = 4096, 8
	src, _ := coupler.OfflineGSMap(func(gi int) int { return gi * p / n }, n, p)
	dst, _ := coupler.OfflineGSMap(func(gi int) int { return gi % p }, n, p)
	for _, mode := range []coupler.RearrangeMode{coupler.ModeAlltoall, coupler.ModeP2P} {
		b.Run(mode.String(), func(b *testing.B) {
			par.Run(p, func(c *par.Comm) {
				r, err := coupler.BuildRouter(c, src, dst)
				if err != nil {
					b.Fatal(err)
				}
				av, _ := coupler.NewAttrVect([]string{"t", "s", "u", "v"}, r.NSrc)
				if c.Rank() == 0 {
					b.ResetTimer()
				}
				for i := 0; i < b.N; i++ {
					if _, err := coupler.Rearrange(c, r, av, mode); err != nil {
						b.Fatal(err)
					}
				}
			})
		})
	}
}

// BenchmarkRouterOffline compares online (per-rank, communicating) router
// construction against the offline preprocessing path (§5.2.4), and
// reports table memory.
func BenchmarkRouterOffline(b *testing.B) {
	const n, p = 8192, 8
	src, _ := coupler.OfflineGSMap(func(gi int) int { return gi * p / n }, n, p)
	dst, _ := coupler.OfflineGSMap(func(gi int) int { return gi % p }, n, p)
	b.Run("online", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			par.Run(p, func(c *par.Comm) {
				if _, err := coupler.BuildRouter(c, src, dst); err != nil {
					b.Fatal(err)
				}
			})
		}
	})
	b.Run("offline", func(b *testing.B) {
		var bytes int
		for i := 0; i < b.N; i++ {
			rs, err := coupler.BuildRouterOffline(src, dst, p)
			if err != nil {
				b.Fatal(err)
			}
			bytes = rs[0].Bytes()
		}
		b.ReportMetric(float64(bytes), "router-bytes")
	})
}
