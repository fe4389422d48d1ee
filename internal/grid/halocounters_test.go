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

// TestIcosHaloCounters checks the atmosphere decomposition's halo
// accounting over four cell exchanges: one message per peer per exchange,
// and exactly 8 bytes per value shipped.
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
		if got, want := ob.get(ctrHaloMsgsAtm), int64(rounds*len(d.Peers)); got != want || want == 0 {
			t.Errorf("rank %d: halo msgs %d, want %d (nonzero)", c.Rank(), got, want)
		}
		values := 0
		for _, list := range d.cellSend {
			values += nlev * len(list)
		}
		if got, want := ob.get(ctrHaloBytesAtm), int64(8*rounds*values); got != want || want == 0 {
			t.Errorf("rank %d: halo bytes %d, want %d (nonzero)", c.Rank(), got, want)
		}
	})
}

// TestTripolarHaloCounters checks the ocean decomposition's halo accounting
// on a 2×2 layout (south boundary, fold, periodic x) over four scalar
// exchanges: one message per live neighbour per exchange, and exactly 8
// bytes per value shipped — H rows of NI values to each y neighbour and H
// columns of the full local height to each x neighbour.
func TestTripolarHaloCounters(t *testing.T) {
	g, err := NewTripolar(16, 8, 3)
	if err != nil {
		t.Fatal(err)
	}
	const rounds = 4
	par.Run(4, func(c *par.Comm) {
		d, err := NewTripolarDecompLayout(g, c, 2, 2, 2)
		if err != nil {
			t.Error(err)
			return
		}
		ob := newCountingObs()
		d.SetObserver(ob)
		f := d.Alloc()
		for i := 0; i < rounds; i++ {
			d.Exchange(f)
		}
		peers, values := 0, 0
		for _, r := range []int{d.southRank, d.northRank} {
			if r >= 0 {
				peers, values = peers+1, values+d.H*d.NI
			}
		}
		if d.atFold && d.foldRank >= 0 && d.foldRank != c.Rank() {
			peers, values = peers+1, values+d.H*d.NI
		}
		for _, r := range []int{d.westRank, d.eastRank} {
			if r >= 0 {
				peers, values = peers+1, values+d.H*d.LNJ()
			}
		}
		if got, want := ob.get(ctrHaloMsgsOcn), int64(rounds*peers); got != want || want == 0 {
			t.Errorf("rank %d: halo msgs %d, want %d (nonzero)", c.Rank(), got, want)
		}
		if got, want := ob.get(ctrHaloBytesOcn), int64(8*rounds*values); got != want || want == 0 {
			t.Errorf("rank %d: halo bytes %d, want %d (nonzero)", c.Rank(), got, want)
		}
	})
}
