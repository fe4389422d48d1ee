package par

import (
	"errors"
	"strings"
	"testing"
	"time"

	"repro/internal/fault"
)

// An injected send stall (lost message) leaves the receiver parked in
// RecvF64; the sender's barrier deadline fires and its diagnostic names the
// parked rank, and a retry sent after detection is still received.
func TestInjectedStallDetected(t *testing.T) {
	plan, err := fault.New(1, fault.Injection{Kind: fault.Stall, Site: "par.send", Hit: 1, Rank: 1})
	if err != nil {
		t.Fatal(err)
	}
	fired := injected{}
	plan.SetObserver(fired)
	fault.Arm(plan)
	defer fault.Disarm()
	Run(2, func(c *Comm) {
		if c.Rank() == 0 {
			v := RecvF64(c, 1, 9)
			if len(v) != 2 || v[0] != 6 {
				t.Errorf("retry lost: %v", v)
			}
			return
		}
		SendF64(c, 0, 9, []float64{4, 5}) // dropped by the armed plan
		waitBlocked(c, "rank 0: RecvF64")
		err := c.BarrierTimeout(40 * time.Millisecond)
		var te *TimeoutError
		if !errors.As(err, &te) {
			t.Errorf("lost message not detected: %v", err)
		} else if !strings.Contains(te.WhoWaits, "rank 0: RecvF64") {
			t.Errorf("diagnostic %q does not name the starved receiver", te.WhoWaits)
		}
		SendF64(c, 0, 9, []float64{6, 7}) // the retry goes through
	})
	if n := fired["fault.injected.stall"]; n != 1 {
		t.Errorf("stall fired %d times", n)
	}
}

// injected counts a fault plan's injections by counter name; the plan calls
// it under its own lock.
type injected map[string]int64

func (n injected) AddCount(name string, d int64) { n[name] += d }

func TestBarrierTimeout(t *testing.T) {
	Run(3, func(c *Comm) {
		switch c.Rank() {
		case 2:
			// The straggler never arrives.
		default:
			err := c.BarrierTimeout(40 * time.Millisecond)
			var te *TimeoutError
			if !errors.As(err, &te) {
				t.Fatalf("rank %d: abandoned barrier returned %v", c.Rank(), err)
			}
			if !strings.Contains(te.WhoWaits, "BarrierTimeout") {
				t.Errorf("diagnostic %q", te.WhoWaits)
			}
		}
	})
}

func TestBarrierTimeoutCompletes(t *testing.T) {
	Run(4, func(c *Comm) {
		time.Sleep(time.Duration(c.Rank()) * 5 * time.Millisecond)
		if err := c.BarrierTimeout(5 * time.Second); err != nil {
			t.Errorf("rank %d: %v", c.Rank(), err)
		}
		// The synchronization still works as a barrier afterwards.
		c.Barrier()
	})
}

type timeoutObs struct{ counts map[string]int64 }

func (o *timeoutObs) AddCount(name string, d int64) { o.counts[name] += d }

func TestTimeoutCounters(t *testing.T) {
	o := &timeoutObs{counts: make(map[string]int64)}
	Run(2, func(c *Comm) {
		if c.Rank() != 0 {
			return // never enters the barrier
		}
		c.SetObserver(o)
		c.BarrierTimeout(time.Millisecond)
	})
	if o.counts["par.timeout.barrier"] != 1 || o.counts["par.timeout.total"] != 1 {
		t.Errorf("counters %v", o.counts)
	}
}
