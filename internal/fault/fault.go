// Package fault is the deterministic fault-injection subsystem behind the
// robustness story: at km-scale the paper's production runs hold ~100k
// heterogeneous nodes for days, so mean-time-between-failure is shorter than
// a run and the checkpoint/restart path (§5.2.5) must survive real failures.
// This package makes those failures reproducible at laptop scale.
//
// A Plan schedules seeded failures at named sites. Code under test calls
// Point(site, rank) at each site; when no plan is armed the hook costs one
// atomic load and a nil check, so production paths keep their shape. When a
// plan is armed, the Nth matching call at a site returns a Fault describing
// what to break:
//
//   - io-error — the operation must fail with Fault.Error()
//   - torn     — a write must persist only a prefix (Fault.Corrupt)
//   - bitflip  — one deterministically chosen bit flips (Fault.Corrupt)
//   - stall    — a message is lost in flight / a rank delays (Fault.Sleep)
//   - nan      — a NaN lands in a coupled prognostic field
//
// Plan spec grammar (the -faults flag):
//
//	SPEC  := entry (';' entry)*
//	entry := kind '@' site ':' hit (':' opt)*
//	opt   := 'rank=' INT | 'delay=' DURATION | 'repeat'
//
// e.g. "io-error@pario.write:2;nan@esm.step:17;stall@par.send:3:rank=1".
// hit is 1-based and counted per (site, rank), so multi-rank runs stay
// deterministic: each rank sees its own call sequence.
//
// Arm installs one process-global plan: ranks are goroutines in one
// process, so one plan serves the whole miniature machine.
package fault

import (
	"fmt"
	"math/rand"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Kind names one failure mode.
type Kind string

// The supported failure modes.
const (
	IOError Kind = "io-error"
	Torn    Kind = "torn"
	Bitflip Kind = "bitflip"
	Stall   Kind = "stall"
	NaN     Kind = "nan"
)

// AnyRank matches every rank in an Injection, and is what sites that do not
// know their rank pass to Point (only rank-agnostic injections match there).
const AnyRank = -1

// Observer is the structural subset of obs.Observer this package emits
// counters through ("fault.injected.<kind>"), declared locally so fault
// stays a leaf package.
type Observer interface {
	AddCount(name string, delta int64)
}

// Injection schedules one failure at a named site.
type Injection struct {
	Kind  Kind
	Site  string
	Hit   int           // fire on the Hit-th matching Point call (1-based)
	Rank  int           // restrict to one rank; AnyRank matches all
	Delay time.Duration // stall duration (stall kind only)
	// Repeat refires on every Hit-th call instead of exactly once. One-shot
	// injections never refire after a rollback because hit counters are
	// monotonic across the whole process lifetime.
	Repeat bool
}

func (in Injection) validate() error {
	switch in.Kind {
	case IOError, Torn, Bitflip, Stall, NaN:
	default:
		return fmt.Errorf("fault: unknown kind %q", in.Kind)
	}
	if in.Site == "" {
		return fmt.Errorf("fault: injection without a site")
	}
	if in.Hit < 1 {
		return fmt.Errorf("fault: %s@%s: hit must be ≥ 1, got %d", in.Kind, in.Site, in.Hit)
	}
	return nil
}

// Plan is an armed schedule of injections plus the seeded RNG that makes
// corruption positions reproducible. All methods are safe for concurrent use
// by the rank goroutines: the RNG and the hit counters are guarded by one
// mutex.
type Plan struct {
	Seed int64

	mu   sync.Mutex
	rng  *rand.Rand
	inj  []Injection
	hits map[string]int // "site|rank" -> Point calls seen
	obs  Observer
}

// New builds a plan from explicit injections.
func New(seed int64, inj ...Injection) (*Plan, error) {
	for _, in := range inj {
		if err := in.validate(); err != nil {
			return nil, err
		}
	}
	return &Plan{
		Seed: seed,
		rng:  rand.New(rand.NewSource(seed)),
		inj:  append([]Injection(nil), inj...),
		hits: make(map[string]int),
	}, nil
}

// Parse builds a plan from the spec grammar documented at the top of the
// package. An empty spec yields a nil plan (nothing to arm).
func Parse(spec string, seed int64) (*Plan, error) {
	spec = strings.TrimSpace(spec)
	if spec == "" {
		return nil, nil
	}
	var inj []Injection
	for _, entry := range strings.Split(spec, ";") {
		entry = strings.TrimSpace(entry)
		if entry == "" {
			continue
		}
		kind, rest, ok := strings.Cut(entry, "@")
		if !ok {
			return nil, fmt.Errorf("fault: entry %q: want kind@site:hit", entry)
		}
		parts := strings.Split(rest, ":")
		if len(parts) < 2 {
			return nil, fmt.Errorf("fault: entry %q: missing hit count", entry)
		}
		hit, err := strconv.Atoi(parts[1])
		if err != nil {
			return nil, fmt.Errorf("fault: entry %q: bad hit count: %v", entry, err)
		}
		in := Injection{Kind: Kind(kind), Site: parts[0], Hit: hit, Rank: AnyRank}
		for _, opt := range parts[2:] {
			switch {
			case strings.HasPrefix(opt, "rank="):
				r, err := strconv.Atoi(opt[len("rank="):])
				if err != nil {
					return nil, fmt.Errorf("fault: entry %q: bad rank: %v", entry, err)
				}
				in.Rank = r
			case strings.HasPrefix(opt, "delay="):
				d, err := time.ParseDuration(opt[len("delay="):])
				if err != nil {
					return nil, fmt.Errorf("fault: entry %q: bad delay: %v", entry, err)
				}
				in.Delay = d
			case opt == "repeat":
				in.Repeat = true
			default:
				return nil, fmt.Errorf("fault: entry %q: unknown option %q", entry, opt)
			}
		}
		if err := in.validate(); err != nil {
			return nil, err
		}
		inj = append(inj, in)
	}
	return New(seed, inj...)
}

// SetObserver forwards every injection as a "fault.injected.<kind>" counter.
func (p *Plan) SetObserver(o Observer) {
	p.mu.Lock()
	p.obs = o
	p.mu.Unlock()
}

// String renders the plan in the spec grammar, sorted for stable output.
func (p *Plan) String() string {
	entries := make([]string, 0, len(p.inj))
	for _, in := range p.inj {
		s := fmt.Sprintf("%s@%s:%d", in.Kind, in.Site, in.Hit)
		if in.Rank != AnyRank {
			s += fmt.Sprintf(":rank=%d", in.Rank)
		}
		if in.Delay > 0 {
			s += fmt.Sprintf(":delay=%s", in.Delay)
		}
		if in.Repeat {
			s += ":repeat"
		}
		entries = append(entries, s)
	}
	sort.Strings(entries)
	return strings.Join(entries, ";")
}

func (p *Plan) point(site string, rank int) *Fault {
	p.mu.Lock()
	defer p.mu.Unlock()
	key := site + "|" + strconv.Itoa(rank)
	p.hits[key]++
	n := p.hits[key]
	for _, in := range p.inj {
		if in.Site != site {
			continue
		}
		if in.Rank != AnyRank && in.Rank != rank {
			continue
		}
		if in.Repeat {
			if n%in.Hit != 0 {
				continue
			}
		} else if n != in.Hit {
			continue
		}
		if p.obs != nil {
			p.obs.AddCount("fault.injected."+string(in.Kind), 1)
		}
		return &Fault{Kind: in.Kind, Site: site, Rank: rank, Delay: in.Delay, plan: p}
	}
	return nil
}

func (p *Plan) randInt(n int) int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.rng.Intn(n)
}

var armed atomic.Pointer[Plan]

// Arm makes p the active process-global plan; a nil p disarms.
func Arm(p *Plan) { armed.Store(p) }

// Disarm deactivates the process-global plan.
func Disarm() { armed.Store(nil) }

// Point is the injection hook compiled into fault sites: it reports the
// fault scheduled for this call, or nil. rank is the calling rank where
// known, AnyRank otherwise. With no plan armed this is one atomic load.
func Point(site string, rank int) *Fault {
	p := armed.Load()
	if p == nil {
		return nil
	}
	return p.point(site, rank)
}

// Fault is one firing injection, handed to the site that must enact it.
type Fault struct {
	Kind  Kind
	Site  string
	Rank  int
	Delay time.Duration
	plan  *Plan
}

// Error returns the error an io-error site must fail with.
func (f *Fault) Error() error {
	return fmt.Errorf("fault: injected %s at %s (rank %d)", f.Kind, f.Site, f.Rank)
}

// Corrupt mutates an encoded buffer according to the fault kind: bitflip
// flips one seeded-random bit in place; torn returns a strict prefix
// (dropping at least one byte). Other kinds return buf unchanged.
func (f *Fault) Corrupt(buf []byte) []byte {
	switch f.Kind {
	case Bitflip:
		if len(buf) > 0 {
			i := f.plan.randInt(len(buf))
			buf[i] ^= 1 << f.plan.randInt(8)
		}
	case Torn:
		if len(buf) > 1 {
			return buf[:1+f.plan.randInt(len(buf)-1)]
		}
	}
	return buf
}

// Sleep blocks for the injection's delay (stall kind); no-op otherwise.
func (f *Fault) Sleep() {
	if f.Delay > 0 {
		time.Sleep(f.Delay)
	}
}
