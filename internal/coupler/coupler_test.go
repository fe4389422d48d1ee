package coupler

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/par"
)

func TestAttrVectBasics(t *testing.T) {
	av, err := NewAttrVect([]string{"sst", "taux", "tauy"}, 10)
	if err != nil {
		t.Fatal(err)
	}
	if av.NFields() != 3 || av.LSize != 10 || len(av.Data) != 30 {
		t.Fatal("bad shape")
	}
	sst := av.MustField("sst")
	sst[3] = 7
	again, _ := av.Field("sst")
	if again[3] != 7 {
		t.Error("field slices must alias storage")
	}
	if _, err := av.Field("nope"); err == nil {
		t.Error("unknown field accepted")
	}
}

func TestAttrVectValidation(t *testing.T) {
	if _, err := NewAttrVect([]string{"a", "a"}, 4); err == nil {
		t.Error("duplicate field accepted")
	}
	if _, err := NewAttrVect([]string{"a"}, -1); err == nil {
		t.Error("negative size accepted")
	}
}

// blockOwner distributes n global indices in contiguous blocks over p ranks.
func blockOwner(n, p int) func(int) int {
	return func(gi int) int {
		pe := gi * p / n
		if pe >= p {
			pe = p - 1
		}
		return pe
	}
}

// cyclicOwner distributes round-robin.
func cyclicOwner(p int) func(int) int {
	return func(gi int) int { return gi % p }
}

func TestGSMapOnlineOfflineAgree(t *testing.T) {
	const n, p = 97, 4
	off, err := OfflineGSMap(cyclicOwner(p), n, p)
	if err != nil {
		t.Fatal(err)
	}
	par.Run(p, func(c *par.Comm) {
		var mine []int
		for gi := c.Rank(); gi < n; gi += p {
			mine = append(mine, gi)
		}
		on, err := NewGSMap(c, mine, n)
		if err != nil {
			t.Error(err)
			return
		}
		if !reflect.DeepEqual(on.Segments, off.Segments) {
			t.Error("online and offline maps differ")
		}
	})
}

func TestGSMapOwnerAndLocalIndices(t *testing.T) {
	const n, p = 100, 3
	m, err := OfflineGSMap(blockOwner(n, p), n, p)
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	for pe := 0; pe < p; pe++ {
		idx := m.LocalIndices(pe)
		total += len(idx)
		for _, gi := range idx {
			owner, err := m.Owner(gi)
			if err != nil || owner != pe {
				t.Fatalf("owner(%d) = %d, want %d (%v)", gi, owner, pe, err)
			}
		}
	}
	if total != n {
		t.Fatalf("total local = %d", total)
	}
	if _, err := m.Owner(-1); err == nil {
		t.Error("negative index accepted")
	}
	if _, err := m.Owner(n); err == nil {
		t.Error("out-of-range index accepted")
	}
}

func TestGSMapRejectsBadCoverage(t *testing.T) {
	// An owner of -1 marks a land-eliminated gap: the map builds, and the
	// index simply resolves to no owner.
	m, err := OfflineGSMap(func(gi int) int {
		if gi == 5 {
			return -1
		}
		return 0
	}, 10, 1)
	if err != nil {
		t.Fatalf("gapped map rejected: %v", err)
	}
	if _, err := m.Owner(5); err == nil {
		t.Error("eliminated index resolved to an owner")
	}
	if pe, err := m.Owner(4); err != nil || pe != 0 {
		t.Errorf("Owner(4) = %d, %v", pe, err)
	}
	// Genuinely invalid owners still fail.
	if _, err := OfflineGSMap(func(gi int) int { return 7 }, 10, 1); err == nil {
		t.Error("out-of-range owner accepted")
	}
	if _, err := OfflineGSMap(func(gi int) int { return -2 }, 10, 1); err == nil {
		t.Error("negative owner accepted")
	}
	// Duplicate ownership via buildGSMap directly.
	if _, err := buildGSMap([][]int{{0, 1, 2}, {2, 3}}, 4, false); err == nil {
		t.Error("duplicate ownership accepted")
	}
	if _, err := buildGSMap([][]int{{0, 1}}, 4, false); err == nil {
		t.Error("unowned index accepted")
	}
}

func TestGSMapCompression(t *testing.T) {
	// Block layout compresses to one segment per rank.
	m, _ := OfflineGSMap(blockOwner(1000, 4), 1000, 4)
	if len(m.Segments) != 4 {
		t.Errorf("%d segments, want 4", len(m.Segments))
	}
	// Cyclic layout cannot compress: one segment per element.
	m2, _ := OfflineGSMap(cyclicOwner(4), 1000, 4)
	if len(m2.Segments) != 1000 {
		t.Errorf("%d segments, want 1000", len(m2.Segments))
	}
	if m.Bytes() >= m2.Bytes() {
		t.Error("block map should be smaller")
	}
}

func TestGSMapEncodeDecodeRoundTrip(t *testing.T) {
	m, _ := OfflineGSMap(blockOwner(64, 4), 64, 4)
	data, err := m.Encode()
	if err != nil {
		t.Fatal(err)
	}
	m2, err := DecodeGSMap(data)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(m, m2) {
		t.Error("round trip changed map")
	}
	if _, err := DecodeGSMap([]byte("garbage")); err == nil {
		t.Error("garbage decoded")
	}
}

func TestGSMapPermutationRoundTripProperty(t *testing.T) {
	// Property: for a random permutation-based decomposition, every index
	// has exactly one owner and LocalIndices partitions [0, n).
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 10 + rng.Intn(200)
		p := 1 + rng.Intn(8)
		owners := make([]int, n)
		for i := range owners {
			owners[i] = rng.Intn(p)
		}
		m, err := OfflineGSMap(func(gi int) int { return owners[gi] }, n, p)
		if err != nil {
			return false
		}
		seen := make([]bool, n)
		for pe := 0; pe < p; pe++ {
			for _, gi := range m.LocalIndices(pe) {
				if seen[gi] || owners[gi] != pe {
					return false
				}
				seen[gi] = true
			}
		}
		for _, s := range seen {
			if !s {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestRouterOnlineMatchesOffline(t *testing.T) {
	const n, p = 120, 4
	src, _ := OfflineGSMap(blockOwner(n, p), n, p)
	dst, _ := OfflineGSMap(cyclicOwner(p), n, p)
	offline, err := BuildRouterOffline(src, dst, p)
	if err != nil {
		t.Fatal(err)
	}
	par.Run(p, func(c *par.Comm) {
		online, err := BuildRouter(c, src, dst)
		if err != nil {
			t.Error(err)
			return
		}
		if !reflect.DeepEqual(online, offline[c.Rank()]) {
			t.Errorf("rank %d: online router differs from offline", c.Rank())
		}
	})
}

func TestRouterEncodeDecode(t *testing.T) {
	src, _ := OfflineGSMap(blockOwner(30, 3), 30, 3)
	dst, _ := OfflineGSMap(cyclicOwner(3), 30, 3)
	rs, _ := BuildRouterOffline(src, dst, 3)
	data, err := rs[1].Encode()
	if err != nil {
		t.Fatal(err)
	}
	r2, err := DecodeRouter(data)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(rs[1], r2) {
		t.Error("round trip changed router")
	}
}

func TestRouterMismatchedSizesRejected(t *testing.T) {
	a, _ := OfflineGSMap(blockOwner(10, 2), 10, 2)
	b, _ := OfflineGSMap(blockOwner(12, 2), 12, 2)
	if _, err := BuildRouterOffline(a, b, 2); err == nil {
		t.Error("mismatched sizes accepted")
	}
}

// rearrangeScenario runs a block->cyclic rearrangement and verifies every
// value lands at the right global position, in both modes.
func rearrangeScenario(t *testing.T, mode RearrangeMode) {
	t.Helper()
	const n, p = 200, 4
	src, _ := OfflineGSMap(blockOwner(n, p), n, p)
	dst, _ := OfflineGSMap(cyclicOwner(p), n, p)
	par.Run(p, func(c *par.Comm) {
		r, err := BuildRouter(c, src, dst)
		if err != nil {
			t.Error(err)
			return
		}
		mysrc := src.LocalIndices(c.Rank())
		av, _ := NewAttrVect([]string{"t", "s"}, len(mysrc))
		for i, gi := range mysrc {
			av.MustField("t")[i] = float64(gi)
			av.MustField("s")[i] = float64(gi) * 0.5
		}
		out, err := Rearrange(c, r, av, mode)
		if err != nil {
			t.Error(err)
			return
		}
		mydst := dst.LocalIndices(c.Rank())
		if out.LSize != len(mydst) {
			t.Errorf("out size %d, want %d", out.LSize, len(mydst))
			return
		}
		for i, gi := range mydst {
			if out.MustField("t")[i] != float64(gi) {
				t.Errorf("mode %v: t[%d] = %v, want %d", mode, i, out.MustField("t")[i], gi)
				return
			}
			if out.MustField("s")[i] != float64(gi)*0.5 {
				t.Errorf("mode %v: s mismatch at %d", mode, i)
				return
			}
		}
	})
}

func TestRearrangeAlltoall(t *testing.T) { rearrangeScenario(t, ModeAlltoall) }
func TestRearrangeP2P(t *testing.T)      { rearrangeScenario(t, ModeP2P) }

// Property: rearrangement is a permutation — rearranging src->dst and then
// dst->src recovers the original vector bit-for-bit, for random
// decompositions and both modes.
func TestRearrangeRoundTripProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 20 + rng.Intn(100)
		p := 2 + rng.Intn(4)
		ownersA := make([]int, n)
		ownersB := make([]int, n)
		// Every rank must own at least one point on each side for the maps
		// to be valid decompositions over p ranks.
		for i := range ownersA {
			ownersA[i] = rng.Intn(p)
			ownersB[i] = rng.Intn(p)
		}
		for pe := 0; pe < p; pe++ {
			ownersA[pe] = pe
			ownersB[n-1-pe] = pe
		}
		a, err := OfflineGSMap(func(gi int) int { return ownersA[gi] }, n, p)
		if err != nil {
			return false
		}
		b, err := OfflineGSMap(func(gi int) int { return ownersB[gi] }, n, p)
		if err != nil {
			return false
		}
		ok := true
		mode := RearrangeMode(((seed % 2) + 2) % 2)
		par.Run(p, func(c *par.Comm) {
			fwd, err := BuildRouter(c, a, b)
			if err != nil {
				ok = false
				return
			}
			bwd, err := BuildRouter(c, b, a)
			if err != nil {
				ok = false
				return
			}
			mine := a.LocalIndices(c.Rank())
			av, _ := NewAttrVect([]string{"q"}, len(mine))
			for i, gi := range mine {
				av.MustField("q")[i] = float64(gi*7 + 1)
			}
			mid, err := Rearrange(c, fwd, av, mode)
			if err != nil {
				ok = false
				return
			}
			back, err := Rearrange(c, bwd, mid, mode)
			if err != nil {
				ok = false
				return
			}
			if !reflect.DeepEqual(back.Data, av.Data) {
				ok = false
			}
		})
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

func TestMessageCountP2PBelowAlltoall(t *testing.T) {
	const n, p = 64, 8
	src, _ := OfflineGSMap(blockOwner(n, p), n, p)
	// A destination map that only reshuffles within pairs of ranks: few
	// communication partners per rank.
	dst, _ := OfflineGSMap(func(gi int) int {
		pe := blockOwner(n, p)(gi)
		return pe ^ 1
	}, n, p)
	rs, _ := BuildRouterOffline(src, dst, p)
	for pe, r := range rs {
		a2a, p2p := r.MessageCount(pe, p)
		if a2a != p {
			t.Errorf("alltoall count %d", a2a)
		}
		if p2p > 1 {
			t.Errorf("rank %d: p2p count %d, want <= 1", pe, p2p)
		}
	}
}

func TestRearrangeSizeValidation(t *testing.T) {
	src, _ := OfflineGSMap(blockOwner(8, 2), 8, 2)
	dst := src
	par.Run(2, func(c *par.Comm) {
		r, _ := BuildRouter(c, src, dst)
		av, _ := NewAttrVect([]string{"x"}, 1) // wrong local size
		if _, err := Rearrange(c, r, av, ModeP2P); err == nil {
			t.Error("wrong size accepted")
		}
	})
}

func TestClockAlarmsAndAdvance(t *testing.T) {
	start := time.Date(2023, 7, 23, 0, 0, 0, 0, time.UTC)
	stop := start.Add(24 * time.Hour)
	step, err := PeriodForCouplingsPerDay(180) // 8 minutes
	if err != nil {
		t.Fatal(err)
	}
	clk, err := NewClock(start, stop, step)
	if err != nil {
		t.Fatal(err)
	}
	for name, perDay := range map[string]int{"atm": 180, "ice": 180, "ocn": 36} {
		p, err := PeriodForCouplingsPerDay(perDay)
		if err != nil {
			t.Fatal(err)
		}
		if err := clk.AddAlarm(name, p); err != nil {
			t.Fatal(err)
		}
	}
	counts := map[string]int{}
	steps := 0
	for {
		ringing, ok := clk.Advance()
		if !ok {
			break
		}
		steps++
		for _, name := range ringing {
			counts[name]++
		}
	}
	if steps != 180 {
		t.Errorf("steps = %d", steps)
	}
	if counts["atm"] != 180 || counts["ice"] != 180 || counts["ocn"] != 36 {
		t.Errorf("alarm counts = %v (want atm/ice 180, ocn 36)", counts)
	}
	if !clk.Done() {
		t.Error("clock not done")
	}
}

// Due is a peek at the next Advance: it must agree with what Advance then
// rings, move nothing, and stay answerable at the stop time.
func TestClockDue(t *testing.T) {
	start := time.Date(2023, 7, 23, 0, 0, 0, 0, time.UTC)
	clk, err := NewClock(start, start.Add(80*time.Minute), 8*time.Minute) // 10 steps
	if err != nil {
		t.Fatal(err)
	}
	for name, period := range map[string]time.Duration{"atm": 8 * time.Minute, "ocn": 40 * time.Minute} {
		if err := clk.AddAlarm(name, period); err != nil {
			t.Fatal(err)
		}
	}
	advances := 0
	for _, tc := range []struct {
		advances int // Advance calls made before asking
		name     string
		want     bool
	}{
		{0, "ocn", true}, // before the first Advance every alarm is due
		{0, "atm", true},
		{0, "lnd", false}, // unknown alarm
		{1, "ocn", false}, // inside the 5-step cycle
		{4, "ocn", false}, // step 4 is the last of the cycle...
		{5, "ocn", true},  // ...and step 5 rings again
		{5, "atm", true},  // a base-step alarm is always due
		{6, "ocn", false},
		{10, "ocn", true}, // at the stop time: Advance refuses, Due still answers
		{10, "lnd", false},
	} {
		for ; advances < tc.advances; advances++ {
			due := clk.Due("ocn")
			ringing, ok := clk.Advance()
			if !ok {
				t.Fatalf("clock stopped after %d advances", advances)
			}
			rang := false
			for _, n := range ringing {
				rang = rang || n == "ocn"
			}
			if rang != due {
				t.Errorf("advance %d rang %v after Due(ocn) = %v", advances, ringing, due)
			}
		}
		now := clk.Current
		if got := clk.Due(tc.name); got != tc.want {
			t.Errorf("after %d advances Due(%q) = %v, want %v", tc.advances, tc.name, got, tc.want)
		}
		if clk.Due(tc.name) != tc.want || clk.Current != now {
			t.Errorf("Due(%q) is not a pure peek", tc.name)
		}
	}
	if _, ok := clk.Advance(); ok {
		t.Error("clock advanced past its stop time")
	}
}

func TestClockValidation(t *testing.T) {
	now := time.Now()
	if _, err := NewClock(now, now, time.Minute); err == nil {
		t.Error("empty interval accepted")
	}
	if _, err := NewClock(now, now.Add(time.Hour), 0); err == nil {
		t.Error("zero step accepted")
	}
	clk, _ := NewClock(now, now.Add(time.Hour), 8*time.Minute)
	if err := clk.AddAlarm("x", 9*time.Minute); err == nil {
		t.Error("non-multiple period accepted")
	}
	if err := clk.AddAlarm("y", 16*time.Minute); err != nil {
		t.Fatal(err)
	}
	if err := clk.AddAlarm("y", 16*time.Minute); err == nil {
		t.Error("duplicate alarm accepted")
	}
	if _, err := PeriodForCouplingsPerDay(7); err == nil {
		t.Error("non-divisor frequency accepted")
	}
}
