package par

import (
	"fmt"
	"time"
)

// Deadline support: a lost message (dead rank, dropped packet) must surface
// as an error carrying a who-waits-on-whom diagnostic, not as a silent
// deadlock. BarrierTimeout is the deadline-carrying barrier; on expiry it
// withdraws cleanly, snapshots the communicator's blocked ranks — including
// any rank parked in RecvF64 on a message that never came — and
// counts the event on the observer ("par.timeout.*").

// TimeoutError reports a blocking operation that expired. WhoWaits is the
// communicator-wide stall diagnostic at expiry time.
type TimeoutError struct {
	Op       string        // the operation that expired, e.g. "BarrierTimeout(40ms)"
	Comm     string        // communicator id
	Rank     int           // the rank that timed out
	Waited   time.Duration // the deadline that elapsed
	WhoWaits string        // blocked ranks at expiry, "rank N: op; ..."
}

func (e *TimeoutError) Error() string {
	return fmt.Sprintf("par: %s on rank %d of %s timed out after %v [%s]",
		e.Op, e.Rank, e.Comm, e.Waited, e.WhoWaits)
}

func (c *Comm) timeout(op string, d time.Duration, counter string) *TimeoutError {
	if c.obs != nil {
		c.obs.AddCount(counter, 1)
		c.obs.AddCount("par.timeout.total", 1)
	}
	return &TimeoutError{
		Op:       op,
		Comm:     c.state.id,
		Rank:     c.rank,
		Waited:   d,
		WhoWaits: c.state.whoWaits(),
	}
}

// BarrierTimeout enters the barrier but gives up after d, withdrawing its
// entry so the barrier generation stays consistent for the ranks still
// inside. A timeout means the collective was abandoned on this rank; the
// caller must treat the whole synchronization as failed (the other ranks
// remain blocked until they time out or the driver tears the world down) —
// the point is a diagnosable error instead of an eternal hang.
func (c *Comm) BarrierTimeout(d time.Duration) error {
	c.stats.Barriers.Add(1)
	cs := c.state
	op := fmt.Sprintf("BarrierTimeout(%v)", d)
	cs.setWaiting(c.rank, op)
	defer cs.clearWaiting(c.rank)
	deadline := time.Now().Add(d)
	cs.bmu.Lock()
	gen := cs.bgen
	cs.bcnt++
	if cs.bcnt == cs.size {
		cs.bcnt = 0
		cs.bgen++
		cs.bcond.Broadcast()
		cs.bmu.Unlock()
		return nil
	}
	for gen == cs.bgen {
		rem := time.Until(deadline)
		if rem <= 0 {
			cs.bcnt-- // withdraw so a later barrier is not satisfied early
			cs.bmu.Unlock()
			return c.timeout(op, d, "par.timeout.barrier")
		}
		t := time.AfterFunc(rem, func() {
			cs.bmu.Lock()
			cs.bcond.Broadcast()
			cs.bmu.Unlock()
		})
		cs.park(&cs.bmu, cs.bcond)
		t.Stop()
	}
	cs.bmu.Unlock()
	return nil
}
