//go:build unix

package statestore

import (
	"errors"
	"os"
	"path/filepath"
	"testing"
)

// TestTruncatedUnderOpenStore cuts store.dat short under an open Store. The
// mapping then reaches past the end of the file, and touching it raises
// SIGBUS: every query class must hand that back as ErrTruncated — from the
// checksum of a blob nothing had verified yet and from the kernels walking
// one that had — and the process must live to say so.
func TestTruncatedUnderOpenStore(t *testing.T) {
	const snaps, nAtm, nOcn = 8, 3000, 1000 // several pages per blob
	dir := buildStore(t, snaps, nAtm, nOcn)
	st, err := Open(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	const last = snaps - 1
	query, err := st.DecodeField(last, PsField) // verifies atm.ps of the last snapshot
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(filepath.Join(dir, DataFile), 4096); err != nil {
		t.Fatal(err)
	}
	for name, q := range map[string]func() error{
		"Point, verified blob":   func() error { _, err := st.Point(last, PsField, nAtm-1); return err },
		"Point, unverified blob": func() error { _, err := st.Point(last, WindField, nAtm-1); return err },
		"PointSeries":            func() error { _, err := st.PointSeries(SSTField, 5); return err },
		"RegionSeries":           func() error { _, err := st.RegionSeries(PsField, nAtm-100, nAtm); return err },
		"DecodeField":            func() error { _, err := st.DecodeField(last, PsField); return err },
		"Diagnostics":            func() error { _, err := st.Diagnostics(last); return err },
		"NearestAnalogs":         func() error { _, err := st.NearestAnalogs(PsField, query, 3, 2); return err },
		"BruteForceAnalogs":      func() error { _, err := st.BruteForceAnalogs(PsField, query, 3); return err },
	} {
		if err := q(); !errors.Is(err, ErrTruncated) {
			t.Errorf("%s on a truncated data file: %v, want ErrTruncated", name, err)
		}
	}
	// A Store opened on the short file refuses by size, without a fault.
	short, err := Open(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer short.Close()
	if _, err := short.Point(last, PsField, 0); !errors.Is(err, ErrTruncated) {
		t.Errorf("Point past the end of a file opened short: %v, want ErrTruncated", err)
	}
}
