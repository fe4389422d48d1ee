package pp

import (
	"strings"
	"testing"
)

// Satellite: hash-collision and double-registration behavior, pinned.
// Real FNV-1a collisions are infeasible to mine, so the collision branch is
// driven through registerHashed with a forced hash.
func TestRegistryCollisionAndDoubleRegistration(t *testing.T) {
	reg := NewRegistry()
	nop := func(Space, any) {}
	h, err := reg.registerHashed(0xdead, "ocn.momentum", nop)
	if err != nil || h != 0xdead {
		t.Fatalf("registerHashed: %v", err)
	}
	// Different name, same hash: the collision error, naming both kernels.
	_, err = reg.registerHashed(0xdead, "atm.momentum", nop)
	if err == nil || !strings.Contains(err.Error(), "hash collision") ||
		!strings.Contains(err.Error(), "ocn.momentum") || !strings.Contains(err.Error(), "atm.momentum") {
		t.Fatalf("collision error = %v", err)
	}
	// Same name twice: the double-registration error, not a collision.
	_, err = reg.registerHashed(0xdead, "ocn.momentum", nop)
	if err == nil || !strings.Contains(err.Error(), "already registered") {
		t.Fatalf("double-registration error = %v", err)
	}
	// Neither failure clobbered the original registration.
	if got := reg.Names(); len(got) != 1 || got[0] != "ocn.momentum" {
		t.Fatalf("Names = %v", got)
	}
	if err := reg.Launch(0xdead, Serial{}, nil); err != nil {
		t.Fatal(err)
	}
	// The forced hash differs from HashName, so count via the entry itself.
	if got := reg.byHash[0xdead].launches.Load(); got != 1 {
		t.Fatalf("launch count = %d after failed registrations, want 1", got)
	}
}

// Registered kernels launched on an instrumented space report per-kernel
// counts to that space's observer — the per-model accounting path the
// coupled model uses (core wraps its space with pp.Instrument).
func TestLaunchCountsOnInstrumentedSpace(t *testing.T) {
	regObs, spObs := newRecordObserver(), newRecordObserver()
	reg := NewRegistry()
	reg.SetObserver(regObs)
	h := reg.MustRegister("ocn.continuity", func(s Space, _ any) {
		s.ParallelFor(4, func(int) {})
	})
	sp := Instrument(Serial{}, spObs)
	for i := 0; i < 2; i++ {
		if err := reg.Launch(h, sp, nil); err != nil {
			t.Fatal(err)
		}
	}
	if regObs.counts["pp.kernel.ocn.continuity"] != 2 {
		t.Errorf("registry observer counts = %v", regObs.counts)
	}
	if spObs.counts["pp.kernel.ocn.continuity"] != 2 {
		t.Errorf("space observer counts = %v", spObs.counts)
	}
	if spObs.counts["pp.for.launches"] != 2 {
		t.Errorf("inner launches not counted: %v", spObs.counts)
	}
}

// Satellite: MD launches and tile stats must flow through the pp.* counters
// instead of bypassing Instrumented untyped.
func TestMDLaunchesCounted(t *testing.T) {
	o := newRecordObserver()
	s := Instrument(NewHost(2), o)
	r2, err := NewMDRange([]int{0, 0}, []int{7, 5}, []int{4, 4})
	if err != nil {
		t.Fatal(err)
	}
	var hits [7 * 5]int32
	ParallelForMD2(s, r2, true, func(i, j int) { hits[i*5+j]++ })
	r3, err := NewMDRange([]int{0, 0, 0}, []int{3, 4, 5}, []int{2, 2, 0})
	if err != nil {
		t.Fatal(err)
	}
	ParallelForMD3(s, r3, func(i, j, k int) {})
	if got := o.counts["pp.md.launches"]; got != 2 {
		t.Errorf("pp.md.launches = %d, want 2", got)
	}
	if got := o.counts["pp.md.tiles"]; got != int64(r2.NumTiles()+r3.NumTiles()) {
		t.Errorf("pp.md.tiles = %d, want %d", got, r2.NumTiles()+r3.NumTiles())
	}
	if got := o.counts["pp.md.iters"]; got != 7*5+3*4*5 {
		t.Errorf("pp.md.iters = %d, want %d", got, 7*5+3*4*5)
	}
	// Profiled MD2 tile stats reach the observer under pp.md.*.
	if got := o.samples["pp.md.tile_seconds"]; len(got) != r2.NumTiles() {
		t.Errorf("pp.md.tile_seconds samples = %d, want %d", len(got), r2.NumTiles())
	}
	if got := o.samples["pp.md.imbalance"]; len(got) != 1 {
		t.Errorf("pp.md.imbalance samples = %d, want 1", len(got))
	}
	// Uninstrumented spaces take the zero-overhead path.
	ParallelForMD2(NewHost(2), r2, false, func(i, j int) {})
	if got := o.counts["pp.md.launches"]; got != 2 {
		t.Errorf("uninstrumented launch leaked a count: %d", got)
	}
}

// Satellite: MDRange edge tiles — non-divisible extents, empty ranges, and
// single-tile ranges — on every backend.
func TestMDRangeEdgeTiles(t *testing.T) {
	backends := []Space{Serial{}, NewHost(4), NewCPE(16), NewCPE(1)}
	cases := []struct {
		name         string
		lo, hi, tile []int
	}{
		{"non-divisible", []int{0, 0}, []int{7, 13}, []int{3, 5}},
		{"non-divisible-offset", []int{2, 1}, []int{11, 8}, []int{4, 3}},
		{"empty-dim0", []int{3, 0}, []int{3, 9}, []int{2, 2}},
		{"empty-both", []int{0, 0}, []int{0, 0}, []int{1, 1}},
		{"single-tile", []int{0, 0}, []int{5, 6}, []int{0, 0}},
		{"tile-larger-than-dim", []int{0, 0}, []int{3, 2}, []int{16, 16}},
		{"tile-one", []int{0, 0}, []int{4, 4}, []int{1, 1}},
	}
	for _, tc := range cases {
		r, err := NewMDRange(tc.lo, tc.hi, tc.tile)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		ni, nj := tc.hi[0]-tc.lo[0], tc.hi[1]-tc.lo[1]
		want := make([]int, ni*nj)
		ParallelForMD2(Serial{}, r, false, func(i, j int) {
			want[(i-tc.lo[0])*nj+(j-tc.lo[1])]++
		})
		for i, c := range want {
			if c != 1 {
				t.Fatalf("%s: serial reference covered cell %d %d times", tc.name, i, c)
			}
		}
		if got := r.Size(); got != ni*nj {
			t.Errorf("%s: Size = %d, want %d", tc.name, got, ni*nj)
		}
		for _, s := range backends {
			got := make([]int32, ni*nj)
			ParallelForMD2(s, r, false, func(i, j int) {
				idx := (i-tc.lo[0])*nj + (j - tc.lo[1])
				got[idx]++ // tiles are disjoint: no two workers share a cell
			})
			for i, c := range got {
				if c != 1 {
					t.Fatalf("%s on %s: cell %d covered %d times", tc.name, s.Name(), i, c)
				}
			}
		}
	}
	// Rank-3 edge tiles: non-divisible in every dimension.
	r3, err := NewMDRange([]int{0, 1, 0}, []int{5, 8, 7}, []int{2, 3, 4})
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range backends {
		var total int64
		var mu2 = make(chan struct{}, 1)
		mu2 <- struct{}{}
		counts := make([]int32, 5*7*7)
		ParallelForMD3(s, r3, func(i, j, k int) {
			<-mu2
			total++
			counts[(i*7+(j-1))*7+k]++
			mu2 <- struct{}{}
		})
		if total != int64(r3.Size()) {
			t.Fatalf("MD3 on %s: %d iterations, want %d", s.Name(), total, r3.Size())
		}
		for i, c := range counts {
			if c != 1 {
				t.Fatalf("MD3 on %s: cell %d covered %d times", s.Name(), i, c)
			}
		}
	}
}

func TestBindView3(t *testing.T) {
	buf := make([]float64, 2*3*4)
	v := BindView3("u", buf, 2, 3, 4)
	v.Set(1, 2, 3, 42)
	if buf[v.Index(1, 2, 3)] != 42 || v.At(1, 2, 3) != 42 {
		t.Fatal("view writes must land in the caller's buffer")
	}
	if lv := v.Level(1); len(lv) != 12 || lv[2*4+3] != 42 {
		t.Fatalf("Level(1) = len %d", len(lv))
	}
	defer func() {
		if recover() == nil {
			t.Error("extent mismatch must panic at bind time")
		}
	}()
	BindView3("bad", buf, 2, 3, 5)
}
