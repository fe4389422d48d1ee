// Package par is an in-process message-passing runtime that substitutes for
// MPI in this reproduction. Ranks are goroutines sharing a World; each World
// provides communicators with typed point-to-point messaging and
// collectives.
//
// Point-to-point traffic has one path: SendF64/RecvF64 for float64 slices,
// with the receive naming its source and tag exactly. Semantics follow MPI
// where it matters to the ported code:
//
//   - messages between a (source, destination, tag) triple are delivered in
//     FIFO order;
//   - sends are buffered (they never block waiting for a matching receive),
//     which corresponds to MPI_Bsend and is how the coupler and halo code in
//     the original models are written;
//   - collectives synchronize all ranks of the communicator.
//
// The runtime is deliberately simple: it exists so that the coupler,
// rearranger and halo-exchange code in this repository moves its data as
// real messages, and so the communication-pattern experiments (alltoall vs
// point-to-point, §5.2.4) measure real message traffic.
package par

import (
	"fmt"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/fault"
)

type message struct {
	src int
	tag int
	// f64 is the payload of SendF64/RecvF64: a typed field, not `any`, so
	// the halo-exchange hot path pays no interface-conversion allocation.
	f64 []float64
}

// mailbox holds undelivered messages for one rank of one communicator.
type mailbox struct {
	mu    sync.Mutex
	cond  *sync.Cond
	queue []message
	cs    *commState // the communicator it belongs to
}

func newMailbox(cs *commState) *mailbox {
	mb := &mailbox{cs: cs}
	mb.cond = sync.NewCond(&mb.mu)
	return mb
}

func (mb *mailbox) put(m message) {
	mb.mu.Lock()
	mb.queue = append(mb.queue, m)
	mb.cond.Broadcast()
	mb.mu.Unlock()
}

// pop removes and returns the first queued message matching (src, tag);
// the caller holds mb.mu.
func (mb *mailbox) pop(src, tag int) (message, bool) {
	for i, m := range mb.queue {
		if m.src == src && m.tag == tag {
			mb.queue = append(mb.queue[:i], mb.queue[i+1:]...)
			return m, true
		}
	}
	return message{}, false
}

// pollBudget is how long a blocking receive polls its mailbox, yielding the
// processor between looks, before it parks on the condition variable. The
// messages of a halo exchange arrive within microseconds of each other, and
// waking a parked goroutine costs more than that (a futex round trip, tens
// of µs on a virtualized host), so parking on each of the ~85 receives of a
// coupling step idles a third of a 2-rank run. The budget covers the waits
// inside a coupling step (a rank whose partner runs a few hundred µs behind
// at an exchange), not just back-to-back messages: with a 50 µs budget those
// waits parked or not by the luck of the timing, one wake-up's latency made
// the partner wait and park in turn, and on a loud host few steps came
// through without a park (EXPERIMENTS.md "coupled_r2 spread"). Longer waits —
// assembly, I/O on another rank, the conc schedule's joins — still park. The
// budget is wall time, not iterations, so it limits itself when ranks
// outnumber cores: a yield to a runnable rank uses it up and the receiver
// parks as before.
const pollBudget = time.Millisecond

// take removes and returns the first message matching (src, tag), blocking
// until one arrives: the one receive-progress rule under RecvF64.
// It polls for pollBudget, then parks.
func (mb *mailbox) take(src, tag int) message {
	if m, ok := mb.poll(src, tag, pollBudget); ok {
		return m
	}
	mb.mu.Lock()
	for {
		if m, ok := mb.pop(src, tag); ok {
			mb.mu.Unlock()
			return m
		}
		mb.cs.park(&mb.mu, mb.cond)
	}
}

// poll looks for a matching message until one arrives or budget elapses,
// yielding to other runnable goroutines between looks.
func (mb *mailbox) poll(src, tag int, budget time.Duration) (message, bool) {
	start := time.Now()
	for {
		if m, ok := mb.tryTake(src, tag); ok {
			return m, true
		}
		if time.Since(start) >= budget {
			return message{}, false
		}
		runtime.Gosched()
	}
}

// tryTake is the non-blocking variant of take; ok reports whether a matching
// message was found.
func (mb *mailbox) tryTake(src, tag int) (message, bool) {
	mb.mu.Lock()
	defer mb.mu.Unlock()
	return mb.pop(src, tag)
}

// world is what every communicator of one Run shares: the abort a rank's
// panic raises. A rank that panics while its peers block in a receive, a
// barrier, a collective or a Split would otherwise leave them waiting for
// it forever, and Run waiting for them. To wake them, the world lists the
// communicators that have a waiter parked right now — an intrusive list,
// so parking allocates nothing, and a communicator nobody waits on (say,
// one split per checkpoint write) is not held.
type world struct {
	mu     sync.Mutex
	parked *commState // head of the communicators with parked waiters
	abort  atomic.Pointer[abortError]
}

// abortError is the panic a rank raises when a peer's panic aborts the
// world while it waits, or before it would: it names the rank that panicked
// first and what it panicked with, so even where it escapes Run (in a
// goroutine a rank started) it points at the root cause.
type abortError struct {
	rank  int // the rank whose panic aborted the world
	cause any // what it panicked with
}

func (e *abortError) Error() string {
	return fmt.Sprintf("par: aborted: rank %d panicked: %v", e.rank, e.cause)
}

// fail aborts the world on rank's panic p, unless it is already aborted,
// and wakes every parked waiter. The list is copied before any waiter's
// lock is taken: a waiter takes the world's lock while holding its own.
func (w *world) fail(rank int, p any) {
	if !w.abort.CompareAndSwap(nil, &abortError{rank: rank, cause: p}) {
		return
	}
	var parked []*commState
	w.mu.Lock()
	for cs := w.parked; cs != nil; cs = cs.next {
		parked = append(parked, cs)
	}
	w.mu.Unlock()
	for _, cs := range parked {
		cs.wake()
	}
}

// park waits on cond, whose lock mu the caller holds, unless the world is
// aborted: then it releases mu and panics with the abort. The waiter lists
// its communicator before it checks the abort, so an abort either sees it
// listed — and its wake-up, which needs mu, comes after cond.Wait has
// released it — or was raised before the check.
func (cs *commState) park(mu sync.Locker, cond *sync.Cond) {
	w := cs.w
	w.mu.Lock()
	if cs.nparked == 0 {
		cs.next = w.parked
		if cs.next != nil {
			cs.next.prev = cs
		}
		w.parked = cs
	}
	cs.nparked++
	w.mu.Unlock()
	if err := w.abort.Load(); err != nil {
		cs.unpark()
		mu.Unlock()
		panic(err)
	}
	cond.Wait()
	cs.unpark()
}

// unpark takes one parked waiter off the communicator's count, and the
// communicator off the world's list when it was the last.
func (cs *commState) unpark() {
	w := cs.w
	w.mu.Lock()
	if cs.nparked--; cs.nparked == 0 {
		if cs.prev != nil {
			cs.prev.next = cs.next
		} else {
			w.parked = cs.next
		}
		if cs.next != nil {
			cs.next.prev = cs.prev
		}
		cs.prev, cs.next = nil, nil
	}
	w.mu.Unlock()
}

// commState is the shared state of one communicator: mailboxes for every
// member rank plus reusable synchronization structures for collectives.
type commState struct {
	size  int
	boxes []*mailbox

	// w is the Run this communicator belongs to; nparked counts its parked
	// waiters, and prev/next link it into w's list while that is non-zero
	// (all three guarded by w.mu).
	w          *world
	nparked    int
	prev, next *commState

	// barrier
	bmu   sync.Mutex
	bcond *sync.Cond
	bcnt  int
	bgen  int

	// shared scratch for collectives: one slot per rank, reset by generation
	// (fslots: the float slices AllreduceSliceInto reads in place).
	smu    sync.Mutex
	scond  *sync.Cond
	slots  []any
	fslots [][]float64
	sdone  int
	sgen   int

	// communicator id, used to derive deterministic split ids.
	id      string
	splitMu sync.Mutex
	splits  map[string]*commState
	gathers map[string]*splitGather

	// who-waits registry: every blocking operation announces itself here so
	// a timed-out rank can dump which ranks wait on whom instead of leaving
	// a silent deadlock (the stall-detection diagnostic).
	wmu     sync.Mutex
	waiting map[int]string
}

func (cs *commState) setWaiting(rank int, desc string) {
	cs.wmu.Lock()
	cs.waiting[rank] = desc
	cs.wmu.Unlock()
}

func (cs *commState) clearWaiting(rank int) {
	cs.wmu.Lock()
	delete(cs.waiting, rank)
	cs.wmu.Unlock()
}

// WhoWaits formats the communicator's blocked ranks, one "rank N: op" line
// per waiter, sorted by rank — the diagnostic attached to TimeoutError.
func (cs *commState) whoWaits() string {
	cs.wmu.Lock()
	ranks := make([]int, 0, len(cs.waiting))
	for r := range cs.waiting {
		ranks = append(ranks, r)
	}
	sort.Ints(ranks)
	lines := make([]string, 0, len(ranks))
	for _, r := range ranks {
		lines = append(lines, fmt.Sprintf("rank %d: %s", r, cs.waiting[r]))
	}
	cs.wmu.Unlock()
	if len(lines) == 0 {
		return "no ranks blocked on " + cs.id
	}
	out := lines[0]
	for _, l := range lines[1:] {
		out += "; " + l
	}
	return out
}

func newCommState(w *world, size int, id string) *commState {
	cs := &commState{
		size:    size,
		w:       w,
		boxes:   make([]*mailbox, size),
		slots:   make([]any, size),
		fslots:  make([][]float64, size),
		id:      id,
		splits:  make(map[string]*commState),
		gathers: make(map[string]*splitGather),
		waiting: make(map[int]string),
	}
	for i := range cs.boxes {
		cs.boxes[i] = newMailbox(cs)
	}
	cs.bcond = sync.NewCond(&cs.bmu)
	cs.scond = sync.NewCond(&cs.smu)
	return cs
}

// wake broadcasts every condition the communicator's waiters park on.
func (cs *commState) wake() {
	for _, mb := range cs.boxes {
		mb.mu.Lock()
		mb.cond.Broadcast()
		mb.mu.Unlock()
	}
	cs.bmu.Lock()
	cs.bcond.Broadcast()
	cs.bmu.Unlock()
	cs.smu.Lock()
	cs.scond.Broadcast()
	cs.smu.Unlock()
	cs.splitMu.Lock()
	for _, g := range cs.gathers {
		g.mu.Lock()
		g.cond.Broadcast()
		g.mu.Unlock()
	}
	cs.splitMu.Unlock()
}

// Comm is one rank's handle onto a communicator.
type Comm struct {
	state *commState
	rank  int
	stats *CommStats
	obs   Observer
}

// Rank returns the calling rank within the communicator.
func (c *Comm) Rank() int { return c.rank }

// Size returns the number of ranks in the communicator.
func (c *Comm) Size() int { return c.state.size }

// Run launches n ranks, each executing body with its world communicator, and
// waits for all of them to finish. A panic in a rank aborts the world: every
// peer blocked in a receive, a barrier, a collective or a Split — on the
// world or on any communicator split from it — wakes and unwinds, as does
// a peer that blocks later. Run then re-raises the
// first panic in the caller as "par: rank N panicked: …", so test failures
// surface instead of hanging.
func Run(n int, body func(c *Comm)) {
	if n <= 0 {
		panic(fmt.Sprintf("par: Run with non-positive size %d", n))
	}
	w := &world{}
	cs := newCommState(w, n, "world")
	var wg sync.WaitGroup
	for r := 0; r < n; r++ {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			defer func() {
				if p := recover(); p != nil {
					w.fail(rank, p)
				}
			}()
			body(&Comm{state: cs, rank: rank, stats: &CommStats{}})
		}(r)
	}
	wg.Wait()
	if err := w.abort.Load(); err != nil {
		panic(fmt.Sprintf("par: rank %d panicked: %v", err.rank, err.cause))
	}
}

// SendF64 delivers a []float64 payload to rank dst with the given tag.
// Sends are buffered and never block. The slice lands in the message's typed
// field, so a steady-state halo exchange over persistent buffers performs
// zero allocations. The payload is shared by reference, matching the
// zero-copy behaviour of intra-node MPI: a caller that reuses the buffer must
// know the receiver has drained it first (the parity-buffer discipline).
func SendF64(c *Comm, dst int, tag int, data []float64) {
	if dst < 0 || dst >= c.state.size {
		panic(fmt.Sprintf("par: SendF64 to invalid rank %d (size %d)", dst, c.state.size))
	}
	c.countP2PF64(&c.stats.SendMsgs, &c.stats.SendBytes, "par.send.msgs", "par.send.bytes", len(data))
	if f := fault.Point("par.send", c.rank); f != nil && f.Kind == fault.Stall {
		// The message is lost in flight. Nothing on the receiving side times
		// out: the receiver blocks, and the stall surfaces only as the
		// blocked rank in a BarrierTimeout who-waits dump.
		f.Sleep()
		if c.obs != nil {
			c.obs.AddCount("par.send.dropped", 1)
		}
		return
	}
	c.state.boxes[dst].put(message{src: c.rank, tag: tag, f64: data})
}

// RecvF64 blocks until a message from src with the given tag arrives and
// returns its []float64 payload, with no per-call formatting and zero
// allocations.
func RecvF64(c *Comm, src int, tag int) []float64 {
	c.state.setWaiting(c.rank, "RecvF64")
	m := c.state.boxes[c.rank].take(src, tag)
	c.state.clearWaiting(c.rank)
	c.countP2PF64(&c.stats.RecvMsgs, &c.stats.RecvBytes, "par.recv.msgs", "par.recv.bytes", len(m.f64))
	return m.f64
}

// Barrier blocks until all ranks of the communicator have entered it.
func (c *Comm) Barrier() {
	c.stats.Barriers.Add(1)
	cs := c.state
	cs.setWaiting(c.rank, "Barrier")
	defer cs.clearWaiting(c.rank)
	cs.bmu.Lock()
	gen := cs.bgen
	cs.bcnt++
	if cs.bcnt == cs.size {
		cs.bcnt = 0
		cs.bgen++
		cs.bcond.Broadcast()
		cs.bmu.Unlock()
		return
	}
	for gen == cs.bgen {
		cs.park(&cs.bmu, cs.bcond)
	}
	cs.bmu.Unlock()
}

// exchange places v in the calling rank's slot, waits for all ranks, and
// returns a snapshot of every rank's contribution. It is the shared-memory
// primitive under the collectives.
func (c *Comm) exchange(v any) []any {
	cs := c.state
	cs.setWaiting(c.rank, "collective exchange")
	defer cs.clearWaiting(c.rank)
	cs.smu.Lock()
	gen := cs.sgen
	cs.slots[c.rank] = v
	cs.sdone++
	if cs.sdone == cs.size {
		cs.sdone = 0
		cs.sgen++
		cs.scond.Broadcast()
	} else {
		for gen == cs.sgen {
			cs.park(&cs.smu, cs.scond)
		}
	}
	out := make([]any, cs.size)
	copy(out, cs.slots)
	cs.smu.Unlock()
	c.Barrier() // ensure slots are not overwritten by a subsequent collective
	// Every rank has its copy: the communicator keeps no reference to the
	// payload (a set-up exchange's tables would otherwise stay live until
	// the next collective).
	cs.smu.Lock()
	cs.slots[c.rank] = nil
	cs.smu.Unlock()
	return out
}

// splitGather coordinates a Split call across ranks.
type splitGather struct {
	mu      sync.Mutex
	cond    *sync.Cond
	entries []splitEntry
	done    int
	ready   bool
	result  map[int]*commState  // color -> state
	ranks   map[int]map[int]int // color -> old rank -> new rank
}

type splitEntry struct {
	rank  int
	color int
	key   int
}

// Split partitions the communicator by color; within a color, ranks are
// ordered by key (ties broken by old rank), mirroring MPI_Comm_split.
// Ranks passing a negative color receive a nil communicator.
func (c *Comm) Split(color, key int) *Comm {
	cs := c.state
	cs.splitMu.Lock()
	g, ok := cs.gathers["split"]
	if !ok {
		g = &splitGather{}
		g.cond = sync.NewCond(&g.mu)
		cs.gathers["split"] = g
	}
	cs.splitMu.Unlock()

	cs.setWaiting(c.rank, "Split")
	g.mu.Lock()
	g.entries = append(g.entries, splitEntry{rank: c.rank, color: color, key: key})
	g.done++
	if g.done == cs.size {
		// Last rank in: build all the sub-communicators.
		byColor := make(map[int][]splitEntry)
		for _, e := range g.entries {
			if e.color >= 0 {
				byColor[e.color] = append(byColor[e.color], e)
			}
		}
		g.result = make(map[int]*commState)
		g.ranks = make(map[int]map[int]int)
		for color, es := range byColor {
			sort.Slice(es, func(i, j int) bool {
				if es[i].key != es[j].key {
					return es[i].key < es[j].key
				}
				return es[i].rank < es[j].rank
			})
			st := newCommState(cs.w, len(es), fmt.Sprintf("%s/split%d", cs.id, color))
			g.result[color] = st
			m := make(map[int]int, len(es))
			for newRank, e := range es {
				m[e.rank] = newRank
			}
			g.ranks[color] = m
		}
		g.ready = true
		g.cond.Broadcast()
	} else {
		for !g.ready {
			cs.park(&g.mu, g.cond)
		}
	}
	var out *Comm
	if color >= 0 {
		// The product communicator carries fresh counters and inherits the
		// parent's observer.
		out = &Comm{state: g.result[color], rank: g.ranks[color][c.rank], stats: &CommStats{}, obs: c.obs}
	}
	g.done--
	if g.done == 0 {
		// Reset for the next Split on this communicator.
		g.entries = nil
		g.ready = false
		g.result = nil
		g.ranks = nil
	}
	g.mu.Unlock()
	cs.clearWaiting(c.rank)
	c.Barrier()
	return out
}
