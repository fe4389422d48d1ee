package ensemble

import "sync"

// Scheduler names accepted by Config.Sched.
const (
	SchedSteal  = "steal"  // shared queue: any free group takes the next member
	SchedStatic = "static" // members pinned to their home group (idx mod groups)
)

// The dispatch path is the ensemble's hot loop under faults: a slowed group
// cycles members back through the queue while healthy groups drain it, so
// next/requeue/finish must not allocate in steady state
// (TestDispatchPathDoesNotAllocate pins this). Both schedulers are a
// fixed-capacity ring of member indices under a mutex+cond — no channels
// (channel ops allocate sudog on contention), no interface boxing, no fmt.

// memberQueue is a fixed-capacity FIFO ring of member indices.
type memberQueue struct {
	mu     sync.Mutex
	cond   sync.Cond
	buf    []int
	head   int
	n      int
	closed bool
}

func newMemberQueue(capacity int) *memberQueue {
	q := &memberQueue{buf: make([]int, capacity)}
	q.cond.L = &q.mu
	return q
}

func (q *memberQueue) push(m int) {
	q.mu.Lock()
	if q.n == len(q.buf) {
		q.mu.Unlock()
		panic("ensemble: member queue overflow")
	}
	q.buf[(q.head+q.n)%len(q.buf)] = m
	q.n++
	q.cond.Signal()
	q.mu.Unlock()
}

// pop blocks until a member is available or the queue closes; ok=false means
// closed-and-drained (the group supervisor's exit signal).
func (q *memberQueue) pop() (m int, ok bool) {
	q.mu.Lock()
	for q.n == 0 && !q.closed {
		q.cond.Wait()
	}
	if q.n == 0 {
		q.mu.Unlock()
		return 0, false
	}
	m = q.buf[q.head]
	q.head = (q.head + 1) % len(q.buf)
	q.n--
	q.mu.Unlock()
	return m, true
}

func (q *memberQueue) close() {
	q.mu.Lock()
	q.closed = true
	q.cond.Broadcast()
	q.mu.Unlock()
}

// scheduler hands members to group supervisors. next blocks until work is
// available (ok=false: all members terminal, supervisor exits); requeue puts
// a failed member back for another attempt; finish marks one member terminal
// (completed or quarantined) and unblocks everyone once all are.
type scheduler interface {
	next(group int) (member int, stolen bool, ok bool)
	requeue(member int)
	finish()
}

// terminalCount closes the queues once every member has reached a terminal
// state — requeued members keep the count open, so supervisors never exit
// while retries remain.
type terminalCount struct {
	mu      sync.Mutex
	left    int
	onEmpty func()
}

func (t *terminalCount) finish() {
	t.mu.Lock()
	t.left--
	done := t.left == 0
	t.mu.Unlock()
	if done {
		t.onEmpty()
	}
}

// stealSched: one shared queue. A group finishing early simply keeps
// popping — members whose home group is busy are "stolen" by whoever is
// free, which is what keeps the pool saturated under stragglers.
type stealSched struct {
	q      *memberQueue
	groups int
	tc     terminalCount
}

func newStealSched(members, groups int) *stealSched {
	s := &stealSched{q: newMemberQueue(members), groups: groups}
	s.tc.left = members
	s.tc.onEmpty = s.q.close
	for m := 0; m < members; m++ {
		s.q.push(m)
	}
	return s
}

func (s *stealSched) next(group int) (int, bool, bool) {
	m, ok := s.q.pop()
	if !ok {
		return 0, false, false
	}
	return m, m%s.groups != group, true
}

func (s *stealSched) requeue(m int) { s.q.push(m) }
func (s *stealSched) finish()       { s.tc.finish() }

// staticSched: the baseline partitioning — member i belongs to group
// i mod groups and nobody else may run it, so a slow group strands its
// share of the ensemble while the others idle.
type staticSched struct {
	qs []*memberQueue
	tc terminalCount
}

func newStaticSched(members, groups int) *staticSched {
	s := &staticSched{qs: make([]*memberQueue, groups)}
	for g := range s.qs {
		s.qs[g] = newMemberQueue(members)
	}
	s.tc.left = members
	s.tc.onEmpty = func() {
		for _, q := range s.qs {
			q.close()
		}
	}
	for m := 0; m < members; m++ {
		s.qs[m%groups].push(m)
	}
	return s
}

func (s *staticSched) next(group int) (int, bool, bool) {
	m, ok := s.qs[group].pop()
	return m, false, ok
}

func (s *staticSched) requeue(m int) { s.qs[m%len(s.qs)].push(m) }
func (s *staticSched) finish()       { s.tc.finish() }

func newScheduler(kind string, members, groups int) scheduler {
	if kind == SchedStatic {
		return newStaticSched(members, groups)
	}
	return newStealSched(members, groups)
}
