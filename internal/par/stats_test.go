package par

import (
	"fmt"
	"sync"
	"testing"
)

// mockObserver collects forwarded counts, concurrency-safe because every
// rank of a world shares one in the forwarding test.
type mockObserver struct {
	mu     sync.Mutex
	counts map[string]int64
}

func newMockObserver() *mockObserver { return &mockObserver{counts: make(map[string]int64)} }

func (m *mockObserver) AddCount(name string, delta int64) {
	m.mu.Lock()
	m.counts[name] += delta
	m.mu.Unlock()
}

func (m *mockObserver) get(name string) int64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.counts[name]
}

func TestP2PTrafficCounters(t *testing.T) {
	cases := []struct {
		ranks   int
		payload int // float64 elements per message
	}{
		{ranks: 2, payload: 16},
		{ranks: 4, payload: 128},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(fmt.Sprintf("%dranks_%delems", tc.ranks, tc.payload), func(t *testing.T) {
			Run(tc.ranks, func(c *Comm) {
				// Ring: every rank sends one payload right, receives one
				// from the left.
				next := (c.Rank() + 1) % c.Size()
				prev := (c.Rank() - 1 + c.Size()) % c.Size()
				SendF64(c, next, 1, make([]float64, tc.payload))
				RecvF64(c, prev, 1)

				st := c.Stats()
				wantBytes := int64(8 * tc.payload)
				if got := st.SendMsgs.Load(); got != 1 {
					t.Errorf("rank %d: SendMsgs = %d, want 1", c.Rank(), got)
				}
				if got := st.SendBytes.Load(); got != wantBytes {
					t.Errorf("rank %d: SendBytes = %d, want %d", c.Rank(), got, wantBytes)
				}
				if got := st.RecvMsgs.Load(); got != 1 {
					t.Errorf("rank %d: RecvMsgs = %d, want 1", c.Rank(), got)
				}
				if got := st.RecvBytes.Load(); got != wantBytes {
					t.Errorf("rank %d: RecvBytes = %d, want %d", c.Rank(), got, wantBytes)
				}
			})
		})
	}
}

func TestCollectiveTrafficCounters(t *testing.T) {
	for _, ranks := range []int{2, 4} {
		ranks := ranks
		t.Run(fmt.Sprintf("%dranks", ranks), func(t *testing.T) {
			Run(ranks, func(c *Comm) {
				c.Allreduce(1, OpSum)
				c.AllreduceSlice([]float64{1, 2, 3}, OpMax)
				Gather(c, 0, []float64{1})
				Allgather(c, []float64{2})

				st := c.Stats()
				if got := st.Collectives.Load(); got != 4 {
					t.Errorf("rank %d: Collectives = %d, want 4", c.Rank(), got)
				}
				// Contributed bytes: allreduce 8, slice 24, gather 8,
				// allgather 8.
				want := int64(8 + 24 + 8 + 8)
				if got := st.CollectiveBytes.Load(); got != want {
					t.Errorf("rank %d: CollectiveBytes = %d, want %d", c.Rank(), got, want)
				}
			})
		})
	}
}

func TestSplitGetsFreshCountersAndInheritsObserver(t *testing.T) {
	obs := newMockObserver()
	Run(4, func(c *Comm) {
		c.SetObserver(obs)
		sub := c.Split(c.Rank()%2, c.Rank())
		if sub.Stats() == c.Stats() {
			t.Errorf("rank %d: Split shares parent CommStats", c.Rank())
		}
		peer := 1 - sub.Rank()
		SendF64(sub, peer, 9, []float64{1, 2})
		RecvF64(sub, peer, 9)
		if got := sub.Stats().SendBytes.Load(); got != 16 {
			t.Errorf("rank %d: sub SendBytes = %d, want 16", c.Rank(), got)
		}
		if got := c.Stats().SendMsgs.Load(); got != 0 {
			t.Errorf("rank %d: parent counted sub traffic (%d msgs)", c.Rank(), got)
		}
	})
	// 4 ranks x 1 message each, forwarded through the inherited observer.
	if got := obs.get("par.send.msgs"); got != 4 {
		t.Errorf("forwarded par.send.msgs = %d, want 4", got)
	}
	if got := obs.get("par.send.bytes"); got != 64 {
		t.Errorf("forwarded par.send.bytes = %d, want 64", got)
	}
}

func TestObserverForwarding(t *testing.T) {
	obs := newMockObserver()
	Run(2, func(c *Comm) {
		c.SetObserver(obs)
		c.Allreduce(float64(c.Rank()), OpSum)
		if c.Rank() == 0 {
			SendF64(c, 1, 3, []float64{1, 2, 3})
		} else {
			RecvF64(c, 0, 3)
		}
	})
	if got := obs.get("par.collective.allreduce"); got != 2 {
		t.Errorf("par.collective.allreduce = %d, want 2", got)
	}
	if got := obs.get("par.collective.calls"); got != 2 {
		t.Errorf("par.collective.calls = %d, want 2", got)
	}
	if got := obs.get("par.send.bytes"); got != 24 {
		t.Errorf("par.send.bytes = %d, want 24", got)
	}
	if got := obs.get("par.recv.bytes"); got != 24 {
		t.Errorf("par.recv.bytes = %d, want 24", got)
	}
}

func TestPayloadBytes(t *testing.T) {
	type block struct {
		Name string
		Data []float64
	}
	cases := []struct {
		name string
		v    any
		want int64
	}{
		{"nil", nil, 0},
		{"f64slice", make([]float64, 10), 80},
		{"nested", [][]float64{{1, 2}, {3}}, 24},
		{"f32slice", make([]float32, 4), 16},
		{"bytes", []byte("abc"), 3},
		{"string", "hello", 5},
		{"scalar", 3.14, 8},
		{"bool", true, 1},
		{"struct", block{Name: "ps", Data: []float64{1, 2, 3}}, 26},
		{"ptr", &block{Name: "x", Data: []float64{1}}, 9},
		{"intslice", []int{1, 2}, 16},
	}
	for _, tc := range cases {
		if got := payloadBytes(tc.v); got != tc.want {
			t.Errorf("%s: payloadBytes = %d, want %d", tc.name, got, tc.want)
		}
	}
}
