package statestore

import (
	"fmt"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
)

// TestConcurrentQueryStorm is the serving race lap: a live store ingesting
// snapshots on a side goroutine while a pack of query goroutines hammers
// every read path — point, region, full decode, analogs, diagnostics, and
// manifest refreshes — under the race detector. It also pins the
// bounded-staleness contract: after the ingester closes, every offered
// snapshot that was not counted as dropped is committed and queryable.
func TestConcurrentQueryStorm(t *testing.T) {
	const (
		snaps   = 40
		nAtm    = 180
		nOcn    = 60
		readers = 6
		depth   = 4
	)
	dir := filepath.Join(t.TempDir(), "store")
	w, err := Create(dir, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	// Seed one snapshot so readers can open the store immediately.
	if err := w.Append(synthSnapshot(0, nAtm, nOcn)); err != nil {
		t.Fatal(err)
	}
	st, err := Open(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()

	in := NewIngester(w, depth, nil)
	var stop atomic.Bool
	var wg sync.WaitGroup
	errCh := make(chan error, readers)
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for i := 0; !stop.Load(); i++ {
				if err := st.Refresh(); err != nil {
					errCh <- err
					return
				}
				n := st.Snapshots()
				if n == 0 {
					continue
				}
				snap := (i*7 + r) % n
				if _, err := st.Point(snap, PsField, (i*13)%nAtm); err != nil {
					errCh <- fmt.Errorf("point: %w", err)
					return
				}
				if _, err := st.RegionSeries(WindField, 0, 70); err != nil {
					errCh <- fmt.Errorf("region: %w", err)
					return
				}
				if _, err := st.Diagnostics(snap); err != nil {
					errCh <- fmt.Errorf("diag: %w", err)
					return
				}
				if i%5 == r%5 {
					q, err := st.DecodeField(snap, PsField)
					if err != nil {
						errCh <- fmt.Errorf("decode: %w", err)
						return
					}
					if _, err := st.NearestAnalogs(PsField, q, 3, 3); err != nil {
						errCh <- fmt.Errorf("analogs: %w", err)
						return
					}
				}
			}
		}(r)
	}
	// The ingest side: offer snapshots as fast as the queue allows; drops
	// are legitimate (the bounded-staleness escape valve) and counted.
	for s := 1; s < snaps; s++ {
		in.Offer(synthSnapshot(s, nAtm, nOcn))
	}
	if err := in.Close(); err != nil {
		t.Fatalf("ingester: %v", err)
	}
	stop.Store(true)
	wg.Wait()
	select {
	case err := <-errCh:
		t.Fatalf("query storm: %v", err)
	default:
	}

	// Bounded staleness: everything offered minus the counted drops is
	// committed, in order, and queryable.
	if err := st.Refresh(); err != nil {
		t.Fatal(err)
	}
	want := snaps - int(in.Dropped())
	if st.Snapshots() != want {
		t.Fatalf("store holds %d snapshots, want %d (%d offered, %d dropped)",
			st.Snapshots(), want, snaps, in.Dropped())
	}
	if in.Dropped() > 0 {
		t.Logf("dropped %d of %d offers at queue depth %d", in.Dropped(), snaps-1, depth)
	}
	prev := -1
	for i := 0; i < st.Snapshots(); i++ {
		step, _, err := st.Meta(i)
		if err != nil {
			t.Fatal(err)
		}
		if step <= prev {
			t.Fatalf("snapshot %d has step %d, not after %d — ingest reordered commits", i, step, prev)
		}
		prev = step
	}
}

// TestIngesterNeverBlocks pins the hot-path contract: with the queue full,
// Offer returns immediately and counts the drop instead of stalling the
// caller (the OnCheckpoint hook on the coupled driver's critical path).
func TestIngesterNeverBlocks(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "store")
	w, err := Create(dir, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	// A writer whose data file is fine but whose goroutine is saturated:
	// fill the queue faster than tiny appends drain. Use a large snapshot
	// count with a depth-1 queue; some offers MUST drop, none may block.
	in := NewIngester(w, 1, nil)
	for s := 0; s < 64; s++ {
		in.Offer(synthSnapshot(s, 64, 16))
	}
	if err := in.Close(); err != nil {
		t.Fatal(err)
	}
	if got := int64(w.Snapshots()) + in.Dropped(); got != 64 {
		t.Fatalf("committed %d + dropped %d = %d, want 64", w.Snapshots(), in.Dropped(), got)
	}
}
