package grid

import (
	"sync"
	"testing"

	"repro/internal/par"
)

// countingObs is a minimal HaloObserver recording per-name totals.
type countingObs struct {
	mu sync.Mutex
	m  map[string]int64
}

func newCountingObs() *countingObs { return &countingObs{m: map[string]int64{}} }

func (o *countingObs) AddCount(name string, d int64) {
	o.mu.Lock()
	o.m[name] += d
	o.mu.Unlock()
}

func (o *countingObs) get(name string) int64 {
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.m[name]
}

// checkHaloCounters checks a plan's halo accounting after rounds exchanges
// of one nlev-level scalar field: one message per peer per exchange, and
// exactly 8 bytes per value its send lists ship.
func checkHaloCounters(t *testing.T, rank int, ob *countingObs, pl *haloPlan, msgs, bytes string, rounds, nlev int) {
	t.Helper()
	if got, want := ob.get(msgs), int64(rounds*len(pl.peers)); got != want || want == 0 {
		t.Errorf("rank %d: halo msgs %d, want %d (nonzero)", rank, got, want)
	}
	values := 0
	for _, list := range pl.route[0].send {
		values += nlev * len(list)
	}
	if got, want := ob.get(bytes), int64(8*rounds*values); got != want || want == 0 {
		t.Errorf("rank %d: halo bytes %d, want %d (nonzero)", rank, got, want)
	}
}

// TestIcosHaloCounters checks the atmosphere decomposition's halo
// accounting over four cell exchanges.
func TestIcosHaloCounters(t *testing.T) {
	m := icosMesh(t, 2)
	nc := m.NCells()
	const nlev, rounds = 3, 4
	par.Run(2, func(c *par.Comm) {
		d, err := NewIcosDecomp(m, c)
		if err != nil {
			t.Errorf("NewIcosDecomp: %v", err)
			return
		}
		ob := newCountingObs()
		d.SetObserver(ob)
		fc := make([]float64, nlev*nc)
		for i := 0; i < rounds; i++ {
			d.ExchangeCells(fc, nlev)
		}
		checkHaloCounters(t, c.Rank(), ob, &d.cells, ctrHaloMsgsAtm, ctrHaloBytesAtm, rounds, nlev)
	})
}

// TestTripolarHaloCounters checks the ocean decomposition's halo accounting
// on a 2×2 layout (south boundary, fold, periodic x) over four scalar
// exchanges. Corners come straight from the diagonal block, so every block
// has the other three as peers: 12 messages per exchange over the ranks.
func TestTripolarHaloCounters(t *testing.T) {
	g, err := NewTripolar(16, 8, 3)
	if err != nil {
		t.Fatal(err)
	}
	const nlev, rounds = 2, 4
	par.Run(4, func(c *par.Comm) {
		d, err := NewTripolarDecompLayout(g, c, 2, 2, 2)
		if err != nil {
			t.Error(err)
			return
		}
		ob := newCountingObs()
		d.SetObserver(ob)
		f := make([]float64, nlev*d.LNI()*d.LNJ())
		for i := 0; i < rounds; i++ {
			d.ExchangeCells(f, nlev)
		}
		checkHaloCounters(t, c.Rank(), ob, &d.halo, ctrHaloMsgsOcn, ctrHaloBytesOcn, rounds, nlev)
		if msgs := c.Allreduce(float64(len(d.halo.peers)), par.OpSum); msgs != 12 {
			t.Errorf("2x2 layout sends %v messages per exchange over the ranks, want 12", msgs)
		}
	})
}
