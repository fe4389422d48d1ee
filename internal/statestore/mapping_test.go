package statestore

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"repro/internal/precision"
)

// wideSnapshot is one field of n cells: a few of them outgrow minReserve.
func wideSnapshot(s, n int) Snapshot {
	ps := make([]float64, n)
	for c := range ps {
		ps[c] = 1.0e5 + float64((c*31+s*17)%9973)
	}
	return Snapshot{Step: s, SimTime: float64(s) * 480, Fields: []Field{{Name: PsField, Data: ps}}}
}

// TestRefreshAcrossReservation appends past the first reservation under an
// open Store: Refresh must map again, larger, the snapshots on both sides of
// the boundary must decode to the quantizer's round trip, and a view taken
// before the Refresh must still read the bytes it read then.
func TestRefreshAcrossReservation(t *testing.T) {
	const cells, before, after = 20000, 3, 16
	if blobLen(cells, DefaultGroup)*after <= minReserve {
		t.Fatalf("%d snapshots of %d cells stay inside the first reservation", after, cells)
	}
	dir := filepath.Join(t.TempDir(), "store")
	w, err := Create(dir, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	for s := 0; s < before; s++ {
		if err := w.Append(wideSnapshot(s, cells)); err != nil {
			t.Fatal(err)
		}
	}
	st, err := Open(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	old := st.v.Load()
	oldBytes := append([]byte(nil), old.win...)
	if _, err := st.PointSeries(PsField, 7); err != nil { // verifies the first blobs
		t.Fatal(err)
	}

	for s := before; s < after; s++ {
		if err := w.Append(wideSnapshot(s, cells)); err != nil {
			t.Fatal(err)
		}
		if err := st.Refresh(); err != nil {
			t.Fatalf("Refresh after snapshot %d: %v", s, err)
		}
	}
	if st.Snapshots() != after {
		t.Fatalf("Snapshots() = %d after Refresh, want %d", st.Snapshots(), after)
	}
	if n := len(st.windows); n != 2 {
		t.Fatalf("store holds %d reservations after growing from %d to %d bytes, want 2",
			n, len(oldBytes), len(st.v.Load().win))
	}
	if !bytes.Equal(old.win, oldBytes) {
		t.Fatal("the window of the view taken before Refresh no longer reads the bytes it read then")
	}
	for s := 0; s < after; s++ {
		gs, err := precision.EncodeGroupScaled(wideSnapshot(s, cells).Fields[0].Data, DefaultGroup)
		if err != nil {
			t.Fatal(err)
		}
		want := gs.Decode(nil)
		got, err := st.DecodeField(s, PsField)
		if err != nil {
			t.Fatalf("DecodeField(%d): %v", s, err)
		}
		for c := range want {
			if got[c] != want[c] {
				t.Fatalf("snapshot %d cell %d = %v, want %v", s, c, got[c], want[c])
			}
		}
	}
	// The verified bits came along: the blobs checked before the Refresh
	// are hits on the view that replaced theirs.
	v := st.v.Load()
	for s := 0; s < before; s++ {
		if v.verified[s/32].Load()&(1<<(s%32)) == 0 {
			t.Fatalf("snapshot %d lost its verified bit across Refresh", s)
		}
	}
}

// TestLoadFileMatchesMapFile drives the loader platforms without mmap use
// through the same growth as mapFile: both must show the file's bytes at
// every size, inside a reservation and across one.
func TestLoadFileMatchesMapFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "data")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var mapped, loaded []byte
	var reservations [][]byte
	defer func() {
		for _, w := range reservations {
			unmapFile(w)
		}
	}()
	var want []byte
	for _, grow := range []int{0, 1000, 300_000, minReserve, 5} {
		chunk := make([]byte, grow)
		for i := range chunk {
			chunk[i] = byte(len(want) + i*7)
		}
		if _, err := f.Write(chunk); err != nil {
			t.Fatal(err)
		}
		want = append(want, chunk...)
		m, err := mapFile(f, mapped, int64(len(want)))
		if err != nil {
			t.Fatalf("mapFile at %d bytes: %v", len(want), err)
		}
		if cap(m) != cap(mapped) {
			reservations = append(reservations, m[:cap(m)])
		}
		l, err := loadFile(f, loaded, int64(len(want)))
		if err != nil {
			t.Fatalf("loadFile at %d bytes: %v", len(want), err)
		}
		if !bytes.Equal(m, want) || !bytes.Equal(l, want) {
			t.Fatalf("at %d bytes: mapFile equal %v, loadFile equal %v", len(want), bytes.Equal(m, want), bytes.Equal(l, want))
		}
		if len(mapped) > 0 && cap(m) != cap(mapped) && !bytes.Equal(mapped, want[:len(mapped)]) {
			t.Fatalf("at %d bytes: the outgrown mapping no longer reads its bytes", len(want))
		}
		mapped, loaded = m, l
	}
	if _, err := loadFile(f, nil, int64(len(want))+1); !errors.Is(err, ErrTruncated) {
		t.Fatalf("loadFile past the end of the file: %v, want ErrTruncated", err)
	}
}

// TestQueryRacingClose closes a Store under a pack of queries: each query
// either answers or returns ErrClosed, and nothing reads unmapped memory
// (which would kill the test binary, not fail it).
func TestQueryRacingClose(t *testing.T) {
	dir := buildStore(t, 12, 300, 100)
	for round := 0; round < 20; round++ {
		st, err := Open(dir, nil)
		if err != nil {
			t.Fatal(err)
		}
		query, err := st.DecodeField(0, PsField)
		if err != nil {
			t.Fatal(err)
		}
		var wg sync.WaitGroup
		started := make(chan struct{}, 4)
		for r := 0; r < 4; r++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				started <- struct{}{}
				for i := 0; ; i++ {
					var err error
					switch i % 5 {
					case 0:
						_, err = st.Point(i%12, PsField, i%300)
					case 1:
						_, err = st.RegionSeries(WindField, 10, 200)
					case 2:
						_, err = st.NearestAnalogs(PsField, query, 3, 2)
					case 3:
						_, err = st.Diagnostics(i % 12)
					case 4:
						err = st.Refresh()
					}
					if errors.Is(err, ErrClosed) {
						return
					}
					if err != nil {
						t.Errorf("query %d racing Close: %v", i, err)
						return
					}
				}
			}()
		}
		for r := 0; r < 4; r++ {
			<-started
		}
		if err := st.Close(); err != nil {
			t.Fatalf("Close: %v", err)
		}
		wg.Wait()
		if err := st.Close(); err != nil {
			t.Fatalf("second Close: %v", err)
		}
	}
}
