package fault

import (
	"bytes"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestParseRoundTrip(t *testing.T) {
	p, err := Parse("io-error@pario.write:2;nan@esm.step:17;stall@par.send:3:rank=1:delay=50ms;bitflip@pario.write:4:repeat", 7)
	if err != nil {
		t.Fatal(err)
	}
	inj := p.inj
	if len(inj) != 4 {
		t.Fatalf("parsed %d injections", len(inj))
	}
	want := map[string]Injection{
		"pario.write|io-error": {Kind: IOError, Site: "pario.write", Hit: 2, Rank: AnyRank},
		"esm.step|nan":         {Kind: NaN, Site: "esm.step", Hit: 17, Rank: AnyRank},
		"par.send|stall":       {Kind: Stall, Site: "par.send", Hit: 3, Rank: 1, Delay: 50 * time.Millisecond},
		"pario.write|bitflip":  {Kind: Bitflip, Site: "pario.write", Hit: 4, Rank: AnyRank, Repeat: true},
	}
	for _, in := range inj {
		w, ok := want[in.Site+"|"+string(in.Kind)]
		if !ok || in != w {
			t.Errorf("injection %+v, want %+v", in, w)
		}
	}
	if s := p.String(); !strings.Contains(s, "stall@par.send:3:rank=1:delay=50ms") {
		t.Errorf("String() = %q", s)
	}
}

func TestParseErrors(t *testing.T) {
	for _, spec := range []string{
		"io-error",                 // no site
		"io-error@pario.write",     // no hit
		"io-error@pario.write:x",   // bad hit
		"io-error@pario.write:0",   // hit < 1
		"explode@pario.write:1",    // unknown kind
		"nan@esm.step:1:color=red", // unknown option
		"stall@par.send:1:delay=z", // bad delay
	} {
		if _, err := Parse(spec, 1); err == nil {
			t.Errorf("spec %q accepted", spec)
		}
	}
	if p, err := Parse("  ", 1); err != nil || p != nil {
		t.Errorf("blank spec: plan %v err %v", p, err)
	}
}

func TestPointFiresOnceAtHit(t *testing.T) {
	p, err := New(1, Injection{Kind: IOError, Site: "s", Hit: 3, Rank: AnyRank})
	if err != nil {
		t.Fatal(err)
	}
	ob := &lockedObs{}
	p.SetObserver(ob)
	Arm(p)
	defer Disarm()
	for i := 1; i <= 6; i++ {
		f := Point("s", 0)
		if (i == 3) != (f != nil) {
			t.Errorf("call %d: fault %v", i, f)
		}
	}
	if Point("other", 0) != nil {
		t.Error("unrelated site fired")
	}
	if n := ob.n["fault.injected.io-error"]; n != 1 {
		t.Errorf("io-error fired %d times", n)
	}
}

func TestPointPerRankCounters(t *testing.T) {
	p, _ := New(1, Injection{Kind: NaN, Site: "s", Hit: 2, Rank: AnyRank})
	Arm(p)
	defer Disarm()
	// Each rank has an independent hit sequence: both fire on their own
	// second call, regardless of interleaving.
	if Point("s", 0) != nil || Point("s", 1) != nil {
		t.Error("fired on first hit")
	}
	if Point("s", 0) == nil || Point("s", 1) == nil {
		t.Error("missed second hit")
	}
}

func TestRankRestriction(t *testing.T) {
	p, _ := New(1, Injection{Kind: Stall, Site: "s", Hit: 1, Rank: 2})
	Arm(p)
	defer Disarm()
	if Point("s", 0) != nil || Point("s", AnyRank) != nil {
		t.Error("rank-restricted injection fired elsewhere")
	}
	if Point("s", 2) == nil {
		t.Error("rank 2 injection missed")
	}
}

func TestRepeat(t *testing.T) {
	p, _ := New(1, Injection{Kind: IOError, Site: "s", Hit: 2, Rank: AnyRank, Repeat: true})
	Arm(p)
	defer Disarm()
	fired := 0
	for i := 0; i < 8; i++ {
		if Point("s", 0) != nil {
			fired++
		}
	}
	if fired != 4 {
		t.Errorf("repeat every 2nd of 8 calls fired %d times", fired)
	}
}

func TestCorruptDeterministic(t *testing.T) {
	mutate := func(seed int64, kind Kind) []byte {
		p, _ := New(seed, Injection{Kind: kind, Site: "s", Hit: 1, Rank: AnyRank})
		Arm(p)
		defer Disarm()
		buf := bytes.Repeat([]byte{0xAA}, 64)
		return Point("s", 0).Corrupt(buf)
	}
	a, b := mutate(42, Bitflip), mutate(42, Bitflip)
	if !bytes.Equal(a, b) {
		t.Error("same seed produced different bitflips")
	}
	if bytes.Equal(a, bytes.Repeat([]byte{0xAA}, 64)) {
		t.Error("bitflip changed nothing")
	}
	ta, tb := mutate(7, Torn), mutate(7, Torn)
	if len(ta) != len(tb) {
		t.Error("same seed produced different tears")
	}
	if len(ta) >= 64 || len(ta) < 1 {
		t.Errorf("torn length %d", len(ta))
	}
}

func TestDisarmedPointIsNil(t *testing.T) {
	Disarm()
	if Point("anything", 0) != nil {
		t.Error("disarmed Point fired")
	}
}

type countObs struct{ got map[string]int64 }

func (c *countObs) AddCount(name string, d int64) { c.got[name] += d }

func TestObserverCounters(t *testing.T) {
	p, _ := New(1, Injection{Kind: NaN, Site: "s", Hit: 1, Rank: AnyRank})
	o := &countObs{got: make(map[string]int64)}
	p.SetObserver(o)
	Arm(p)
	defer Disarm()
	Point("s", 0)
	if o.got["fault.injected.nan"] != 1 {
		t.Errorf("observer counts %v", o.got)
	}
}

type lockedObs struct {
	mu sync.Mutex
	n  map[string]int64
}

func (o *lockedObs) AddCount(name string, d int64) {
	o.mu.Lock()
	if o.n == nil {
		o.n = make(map[string]int64)
	}
	o.n[name] += d
	o.mu.Unlock()
}

// The -race lap of the plan's goroutine safety: rank goroutines hammer the
// one armed plan concurrently — Point hits, the seeded RNG behind Corrupt,
// observer counts and Arm swaps all race against each other unless the
// plan's mutex and the atomic pointer hold.
func TestPlanConcurrentUse(t *testing.T) {
	defer Disarm()
	p, err := New(11,
		Injection{Kind: Bitflip, Site: "pario.write", Hit: 3, Rank: AnyRank, Repeat: true},
		Injection{Kind: Stall, Site: "par.send", Hit: 5, Rank: AnyRank, Repeat: true, Delay: time.Microsecond},
		Injection{Kind: NaN, Site: "esm.step", Hit: 2, Rank: AnyRank, Repeat: true},
	)
	if err != nil {
		t.Fatal(err)
	}
	ob := &lockedObs{}
	p.SetObserver(ob)
	Arm(p)

	const workers = 8
	const iters = 400
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			buf := make([]byte, 64)
			for i := 0; i < iters; i++ {
				if f := Point("pario.write", w); f != nil {
					f.Corrupt(buf)
				}
				if f := Point("par.send", w); f != nil {
					f.Sleep()
				}
				Point("esm.step", w)
				if i%64 == 0 {
					Arm(p)
				}
			}
		}(w)
	}
	wg.Wait()
	// Counters are per (site, rank), so every rank sees the same schedule.
	want := map[Kind]int64{Bitflip: workers * (iters / 3), Stall: workers * (iters / 5), NaN: workers * (iters / 2)}
	for k, n := range want {
		if got := ob.n["fault.injected."+string(k)]; got != n {
			t.Errorf("%s fired %d times, want %d", k, got, n)
		}
	}
}
