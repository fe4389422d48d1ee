package par

import (
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"
	"testing/quick"
	"time"
	"weak"
)

func TestRunLaunchesAllRanks(t *testing.T) {
	var mu sync.Mutex
	seen := map[int]bool{}
	Run(7, func(c *Comm) {
		mu.Lock()
		seen[c.Rank()] = true
		mu.Unlock()
		if c.Size() != 7 {
			t.Errorf("size = %d, want 7", c.Size())
		}
	})
	if len(seen) != 7 {
		t.Fatalf("saw %d ranks, want 7", len(seen))
	}
}

func TestSendRecvRoundTrip(t *testing.T) {
	Run(2, func(c *Comm) {
		if c.Rank() == 0 {
			SendF64(c, 1, 42, []float64{1, 2, 3})
		} else {
			v := RecvF64(c, 0, 42)
			if !reflect.DeepEqual(v, []float64{1, 2, 3}) {
				t.Errorf("payload = %v", v)
			}
		}
	})
}

func TestFIFOOrderingPerPair(t *testing.T) {
	const n = 100
	Run(2, func(c *Comm) {
		if c.Rank() == 0 {
			for i := 0; i < n; i++ {
				SendF64(c, 1, 7, []float64{float64(i)})
			}
		} else {
			for i := 0; i < n; i++ {
				v := RecvF64(c, 0, 7)
				if v[0] != float64(i) {
					t.Errorf("message %d arrived out of order: got %v", i, v[0])
				}
			}
		}
	})
}

func TestTagSelectivity(t *testing.T) {
	Run(2, func(c *Comm) {
		if c.Rank() == 0 {
			SendF64(c, 1, 1, []float64{1})
			SendF64(c, 1, 2, []float64{2})
		} else {
			// Receive in reverse tag order: tags must select, not FIFO.
			v2 := RecvF64(c, 0, 2)
			v1 := RecvF64(c, 0, 1)
			if v1[0] != 1 || v2[0] != 2 {
				t.Errorf("got %v, %v", v1, v2)
			}
		}
	})
}

func TestBarrierReusable(t *testing.T) {
	const rounds = 50
	var counter int64
	var mu sync.Mutex
	Run(8, func(c *Comm) {
		for i := 0; i < rounds; i++ {
			mu.Lock()
			counter++
			mu.Unlock()
			c.Barrier()
			mu.Lock()
			v := counter
			mu.Unlock()
			if v < int64((i+1)*8) {
				t.Errorf("barrier round %d: counter %d < %d", i, v, (i+1)*8)
			}
			c.Barrier()
		}
	})
}

func TestAllreduce(t *testing.T) {
	Run(6, func(c *Comm) {
		sum := c.Allreduce(float64(c.Rank()+1), OpSum)
		if sum != 21 {
			t.Errorf("sum = %v, want 21", sum)
		}
		max := c.Allreduce(float64(c.Rank()), OpMax)
		if max != 5 {
			t.Errorf("max = %v, want 5", max)
		}
		min := c.Allreduce(float64(c.Rank()), OpMin)
		if min != 0 {
			t.Errorf("min = %v, want 0", min)
		}
	})
}

func TestAllreduceSlice(t *testing.T) {
	Run(4, func(c *Comm) {
		v := []float64{float64(c.Rank()), 1}
		got := c.AllreduceSlice(v, OpSum)
		if got[0] != 6 || got[1] != 4 {
			t.Errorf("got %v", got)
		}
		// Input must be unmodified.
		if v[0] != float64(c.Rank()) {
			t.Errorf("input mutated: %v", v)
		}
	})
}

// AllreduceSliceInto reduces into the caller's buffer: the same sums as
// AllreduceSlice on 4 ranks, and on one rank a copy that allocates nothing
// and still counts one collective of the contributed bytes.
func TestAllreduceSliceInto(t *testing.T) {
	Run(4, func(c *Comm) {
		v := []float64{float64(c.Rank()), 1}
		dst := make([]float64, 2)
		for lap := 0; lap < 3; lap++ { // v is refilled at once after each call
			c.AllreduceSliceInto(dst, v, OpSum)
			if dst[0] != 6+4*float64(lap) || dst[1] != 4 {
				t.Errorf("rank %d lap %d: got %v", c.Rank(), lap, dst)
			}
			v[0]++
		}
	})
	Run(1, func(c *Comm) {
		v, dst := []float64{1, 2, 3}, make([]float64, 3)
		if allocs := testing.AllocsPerRun(10, func() { c.AllreduceSliceInto(dst, v, OpMax) }); allocs != 0 {
			t.Errorf("one rank: %v allocs per call, want 0", allocs)
		}
		if !reflect.DeepEqual(dst, v) {
			t.Errorf("one rank: got %v, want %v", dst, v)
		}
		if got, want := c.Stats().Collectives.Load(), int64(11); got != want {
			t.Errorf("one rank: Collectives = %d after 11 calls, want %d", got, want)
		}
		if got, want := c.Stats().CollectiveBytes.Load(), int64(11*24); got != want {
			t.Errorf("one rank: CollectiveBytes = %d, want %d", got, want)
		}
	})
}

func TestGather(t *testing.T) {
	Run(4, func(c *Comm) {
		g := Gather(c, 0, c.Rank()*c.Rank())
		if c.Rank() == 0 {
			if !reflect.DeepEqual(g, []int{0, 1, 4, 9}) {
				t.Errorf("gather = %v", g)
			}
		} else if g != nil {
			t.Errorf("non-root gather = %v", g)
		}
	})
}

func TestAllgather(t *testing.T) {
	Run(3, func(c *Comm) {
		got := Allgather(c, c.Rank()+100)
		if !reflect.DeepEqual(got, []int{100, 101, 102}) {
			t.Errorf("got %v", got)
		}
	})
}

func TestAlltoall(t *testing.T) {
	Run(3, func(c *Comm) {
		send := make([][]float64, 3)
		for d := range send {
			send[d] = []float64{float64(c.Rank()*10 + d)}
		}
		got := c.AlltoallvF64(send)
		for s, v := range got {
			if want := float64(s*10 + c.Rank()); len(v) != 1 || v[0] != want {
				t.Errorf("from %d got %v, want [%v]", s, v, want)
			}
		}
	})
}

// A collective keeps no reference to its payload once it returns: the
// tables a rank sends in a set-up exchange are garbage as soon as the
// receivers drop their blocks, not at the next collective.
func TestCollectiveHoldsNoPayload(t *testing.T) {
	Run(2, func(c *Comm) {
		send := [][]float64{make([]float64, 1<<12), make([]float64, 1<<12)}
		sent := weak.Make(&send[0][0])
		got := c.AlltoallvF64(send)
		send, got = nil, nil
		c.Barrier()
		if c.Rank() == 0 {
			runtime.GC()
		}
		c.Barrier()
		if sent.Value() != nil {
			t.Errorf("rank %d: the exchanged payload is still reachable after the collective", c.Rank())
		}
		runtime.KeepAlive(got)
	})
}

func TestAlltoallvF64(t *testing.T) {
	Run(4, func(c *Comm) {
		send := make([][]float64, 4)
		for d := range send {
			// Variable lengths: rank r sends d+1 values to rank d.
			blk := make([]float64, d+1)
			for i := range blk {
				blk[i] = float64(c.Rank()*100 + d*10 + i)
			}
			send[d] = blk
		}
		got := c.AlltoallvF64(send)
		for s, blk := range got {
			if len(blk) != c.Rank()+1 {
				t.Fatalf("from %d got len %d, want %d", s, len(blk), c.Rank()+1)
			}
			for i, v := range blk {
				want := float64(s*100 + c.Rank()*10 + i)
				if v != want {
					t.Errorf("from %d [%d] = %v, want %v", s, i, v, want)
				}
			}
		}
	})
}

func TestSplitByParity(t *testing.T) {
	Run(6, func(c *Comm) {
		sub := c.Split(c.Rank()%2, c.Rank())
		if sub.Size() != 3 {
			t.Errorf("sub size = %d", sub.Size())
		}
		if sub.Rank() != c.Rank()/2 {
			t.Errorf("rank %d -> sub rank %d, want %d", c.Rank(), sub.Rank(), c.Rank()/2)
		}
		// The sub-communicator must be functional and isolated.
		sum := sub.Allreduce(1, OpSum)
		if sum != 3 {
			t.Errorf("sub allreduce = %v", sum)
		}
	})
}

func TestSplitKeyOrdering(t *testing.T) {
	Run(4, func(c *Comm) {
		// Reverse ordering by key: old rank 3 becomes new rank 0.
		sub := c.Split(0, -c.Rank())
		if sub.Rank() != 3-c.Rank() {
			t.Errorf("old %d new %d, want %d", c.Rank(), sub.Rank(), 3-c.Rank())
		}
	})
}

func TestSplitNegativeColorExcluded(t *testing.T) {
	Run(4, func(c *Comm) {
		color := 0
		if c.Rank() == 3 {
			color = -1
		}
		sub := c.Split(color, c.Rank())
		if c.Rank() == 3 {
			if sub != nil {
				t.Error("excluded rank got a communicator")
			}
			return
		}
		if sub.Size() != 3 {
			t.Errorf("sub size = %d", sub.Size())
		}
	})
}

func TestSplitRepeatedly(t *testing.T) {
	Run(4, func(c *Comm) {
		for i := 0; i < 10; i++ {
			sub := c.Split(c.Rank()/2, c.Rank())
			if sub.Size() != 2 {
				t.Fatalf("round %d: size %d", i, sub.Size())
			}
		}
	})
}

// Property: AlltoallvF64 is a transpose — applying it twice with the values
// tagged by (src,dst) recovers the original layout.
func TestAlltoallTransposeProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(6)
		ok := true
		Run(n, func(c *Comm) {
			send := make([][]float64, n)
			for d := range send {
				send[d] = []float64{float64(int(seed%1000)*100 + c.Rank()*10 + d)}
			}
			recv := c.AlltoallvF64(send)
			back := c.AlltoallvF64(recv)
			if !reflect.DeepEqual(back, send) {
				ok = false
			}
		})
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

// Property: allreduce(sum) equals the serial sum for random contributions.
func TestAllreduceMatchesSerialSum(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(8)
		vals := make([]float64, n)
		var want float64
		for i := range vals {
			vals[i] = float64(rng.Intn(1000)) // integers: exact fp sum
			want += vals[i]
		}
		ok := true
		Run(n, func(c *Comm) {
			got := c.Allreduce(vals[c.Rank()], OpSum)
			if got != want {
				ok = false
			}
		})
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

func TestRankPanicPropagates(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("panic in a rank did not propagate")
		}
	}()
	Run(3, func(c *Comm) {
		if c.Rank() == 1 {
			panic("boom")
		}
	})
}

// A rank that panics while its peers block must end the run, not hang it:
// every peer wakes, whether it waits in a receive, a barrier, a collective
// or a Split, on the world or on a communicator split from it, and Run
// re-raises the panicking rank's own panic, not a woken peer's.
func TestRankPanicWakesBlockedPeers(t *testing.T) {
	const culprit = 1
	waits := []struct {
		name string
		wait func(c, sub *Comm)
	}{
		{"RecvF64", func(c, _ *Comm) { RecvF64(c, culprit, 7) }},
		{"Barrier", func(c, _ *Comm) { c.Barrier() }},
		{"Allreduce", func(c, _ *Comm) { c.Allreduce(1, OpSum) }},
		{"AllreduceSliceInto", func(c, _ *Comm) { c.AllreduceSliceInto(make([]float64, 2), []float64{1, 2}, OpSum) }},
		{"Split", func(c, _ *Comm) { c.Split(0, c.Rank()) }},
		{"split/Barrier", func(_, sub *Comm) { sub.Barrier() }},
		{"split/RecvF64", func(_, sub *Comm) { RecvF64(sub, culprit, 7) }},
	}
	for _, n := range []int{2, 4, 8} {
		for _, w := range waits {
			t.Run(fmt.Sprintf("ranks=%d/%s", n, w.name), func(t *testing.T) {
				done := make(chan any)
				go func() {
					defer func() { done <- recover() }()
					Run(n, func(c *Comm) {
						sub := c.Split(0, c.Rank())
						if c.Rank() != culprit {
							w.wait(c, sub)
							t.Errorf("rank %d returned from %s although rank %d never joined", c.Rank(), w.name, culprit)
							return
						}
						// Panic only once every peer has announced its wait
						// on the communicator it waits on.
						cs := c.state
						if strings.HasPrefix(w.name, "split/") {
							cs = sub.state
						}
						for waiters(cs) < n-1 {
							runtime.Gosched()
						}
						panic("boom")
					})
				}()
				select {
				case p := <-done:
					if want := fmt.Sprintf("par: rank %d panicked: boom", culprit); p != want {
						t.Errorf("Run panicked with %v, want %q", p, want)
					}
				case <-time.After(5 * time.Second):
					t.Fatal("Run still waiting 5 s after a rank panicked")
				}
			})
		}
	}
}

// waiters counts the ranks announced as blocked on cs.
func waiters(cs *commState) int {
	cs.wmu.Lock()
	defer cs.wmu.Unlock()
	return len(cs.waiting)
}

func TestSendInvalidRankPanics(t *testing.T) {
	Run(2, func(c *Comm) {
		if c.Rank() == 0 {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			SendF64(c, 5, 0, []float64{1})
		}
	})
}
