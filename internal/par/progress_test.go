package par

import (
	"errors"
	"runtime"
	"strings"
	"testing"
	"time"
)

// The receive-progress rule: a blocking receive polls its mailbox for
// pollBudget and then parks. Whichever phase a message meets the receiver
// in, it is delivered exactly once, in FIFO order.

// waitBlocked returns once rank's blocking operation op is announced in the
// who-waits registry, then lets a further 40 poll budgets pass so the rank
// is (almost certainly) past its poll and parked. Delivery must be correct
// either way; the margin only decides which phase the test exercises.
func waitBlocked(c *Comm, waiter string) {
	for !strings.Contains(c.state.whoWaits(), waiter) {
		runtime.Gosched()
	}
	time.Sleep(40 * pollBudget)
}

// queued reports how many undelivered messages the mailbox holds.
func queued(mb *mailbox) int {
	mb.mu.Lock()
	defer mb.mu.Unlock()
	return len(mb.queue)
}

// msg is a test message from rank 0 with tag 5 carrying the value i.
func msg(i int) message { return message{src: 0, tag: 5, f64: []float64{float64(i)}} }

func TestTakeBeforePoll(t *testing.T) {
	mb := newCommState(&world{}, 1, "world").boxes[0]
	for i := 1; i <= 3; i++ {
		mb.put(msg(i))
	}
	for want := 1; want <= 3; want++ {
		if got := mb.take(0, 5).f64[0]; got != float64(want) {
			t.Fatalf("queued message %d arrived as %v", want, got)
		}
	}
	if n := queued(mb); n != 0 {
		t.Fatalf("%d messages left after every one was taken", n)
	}
}

func TestTakeDuringPoll(t *testing.T) {
	mb := newCommState(&world{}, 1, "world").boxes[0]
	started := make(chan struct{})
	first := make(chan message)
	go func() {
		close(started)
		// A budget the test cannot outlast: this receiver is still polling
		// when the messages land, and only a delivery ends the poll.
		m, _ := mb.poll(0, 5, time.Hour)
		first <- m
	}()
	<-started
	for i := 1; i <= 3; i++ {
		mb.put(msg(i))
	}
	if got := (<-first).f64[0]; got != 1 {
		t.Fatalf("poll returned message %v first, want 1", got)
	}
	for want := 2; want <= 3; want++ {
		if got := mb.take(0, 5).f64[0]; got != float64(want) {
			t.Fatalf("message %d arrived as %v", want, got)
		}
	}
	if n := queued(mb); n != 0 {
		t.Fatalf("%d messages left after every one was taken", n)
	}
}

func TestRecvAfterPark(t *testing.T) {
	Run(2, func(c *Comm) {
		if c.Rank() == 1 {
			waitBlocked(c, "rank 0: RecvF64")
			for i := 1; i <= 3; i++ {
				SendF64(c, 0, 5, []float64{float64(i)})
			}
			return
		}
		for want := 1; want <= 3; want++ {
			if got := RecvF64(c, 1, 5); got[0] != float64(want) {
				t.Errorf("message %d arrived as %v", want, got[0])
			}
		}
		if n := queued(c.state.boxes[c.rank]); n != 0 {
			t.Errorf("%d messages left after every one was received", n)
		}
	})
}

// A barrier deadline's who-waits dump names a peer that has polled out and
// parked in RecvF64: the diagnostic a lost message leaves behind.
func TestBarrierTimeoutNamesParkedRank(t *testing.T) {
	Run(2, func(c *Comm) {
		if c.Rank() == 1 {
			if v := RecvF64(c, 0, 9); len(v) != 1 || v[0] != 1 {
				t.Errorf("parked receive got %v", v)
			}
			return
		}
		waitBlocked(c, "rank 1: RecvF64")
		err := c.BarrierTimeout(30 * time.Millisecond)
		var te *TimeoutError
		if !errors.As(err, &te) {
			t.Errorf("barrier rank 1 never enters returned %v", err)
		} else {
			for _, want := range []string{"rank 0: BarrierTimeout(30ms)", "rank 1: RecvF64"} {
				if !strings.Contains(te.WhoWaits, want) {
					t.Errorf("who-waits dump %q does not name %q", te.WhoWaits, want)
				}
			}
		}
		SendF64(c, 1, 9, []float64{1})
	})
}

// With four ranks per processor most receivers' polls are cut short by a
// yield to a runnable rank; the ring must still complete with every payload
// in place.
func TestRingExchangeOversubscribed(t *testing.T) {
	n := 4 * runtime.GOMAXPROCS(0)
	const rounds = 50
	Run(n, func(c *Comm) {
		right, left := (c.Rank()+1)%n, (c.Rank()+n-1)%n
		for round := 0; round < rounds; round++ {
			SendF64(c, right, 3, []float64{float64(c.Rank()), float64(round)})
			got := RecvF64(c, left, 3)
			if len(got) != 2 || got[0] != float64(left) || got[1] != float64(round) {
				t.Errorf("rank %d round %d: received %v from rank %d", c.Rank(), round, got, left)
				return
			}
		}
	})
}
