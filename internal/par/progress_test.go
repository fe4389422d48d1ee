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

func TestTakeBeforePoll(t *testing.T) {
	mb := newMailbox()
	for i := 1; i <= 3; i++ {
		mb.put(message{src: 0, tag: 5, data: i})
	}
	for want := 1; want <= 3; want++ {
		if got := mb.take(0, 5).data; got != want {
			t.Fatalf("queued message %d arrived as %v", want, got)
		}
	}
	if _, ok := mb.tryTake(AnySource, AnyTag); ok {
		t.Fatal("a message was delivered twice")
	}
}

func TestTakeDuringPoll(t *testing.T) {
	mb := newMailbox()
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
		mb.put(message{src: 0, tag: 5, data: i})
	}
	if got := (<-first).data; got != 1 {
		t.Fatalf("poll returned message %v first, want 1", got)
	}
	for want := 2; want <= 3; want++ {
		if got := mb.take(0, 5).data; got != want {
			t.Fatalf("message %d arrived as %v", want, got)
		}
	}
	if _, ok := mb.tryTake(AnySource, AnyTag); ok {
		t.Fatal("a message was delivered twice")
	}
}

func TestRecvAfterPark(t *testing.T) {
	Run(2, func(c *Comm) {
		if c.Rank() == 1 {
			waitBlocked(c, "rank 0: Recv(src=1, tag=5)")
			for i := 1; i <= 3; i++ {
				Send(c, 0, 5, i)
			}
			return
		}
		for want := 1; want <= 3; want++ {
			if got, _ := Recv[int](c, 1, 5); got != want {
				t.Errorf("message %d arrived as %d", want, got)
			}
		}
		if _, ok := c.Probe(AnySource, AnyTag); ok {
			t.Error("a message was delivered twice")
		}
	})
}

// A deadline receive still parks at once and times out, and its who-waits
// dump names a peer that has polled out and parked in a plain Recv.
func TestRecvTimeoutNamesParkedRank(t *testing.T) {
	Run(2, func(c *Comm) {
		if c.Rank() == 1 {
			if v, _ := Recv[string](c, 0, 9); v != "release" {
				t.Errorf("parked receive got %q", v)
			}
			return
		}
		waitBlocked(c, "rank 1: Recv(src=0, tag=9)")
		_, _, err := RecvTimeout[int](c, 1, 7, 30*time.Millisecond)
		var te *TimeoutError
		if !errors.As(err, &te) {
			t.Errorf("receive of a message nobody sends returned %v", err)
		} else {
			for _, want := range []string{"rank 0: RecvTimeout(src=1, tag=7)", "rank 1: Recv(src=0, tag=9)"} {
				if !strings.Contains(te.WhoWaits, want) {
					t.Errorf("who-waits dump %q does not name %q", te.WhoWaits, want)
				}
			}
		}
		Send(c, 1, 9, "release")
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
			got, _ := RecvF64(c, left, 3)
			if len(got) != 2 || got[0] != float64(left) || got[1] != float64(round) {
				t.Errorf("rank %d round %d: received %v from rank %d", c.Rank(), round, got, left)
				return
			}
		}
	})
}
