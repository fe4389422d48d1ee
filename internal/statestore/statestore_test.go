package statestore

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/precision"
)

// synthSnapshot builds a deterministic snapshot with wide dynamic range
// (the quantizer's hard case) for step s.
func synthSnapshot(s, nAtm, nOcn int) Snapshot {
	ps := make([]float64, nAtm)
	wind := make([]float64, nAtm)
	sst := make([]float64, nOcn)
	for c := 0; c < nAtm; c++ {
		ps[c] = 1.0e5 - 4000*math.Sin(float64(c+s)*0.17) - 30*float64(s)
		wind[c] = 12*math.Abs(math.Cos(float64(c)*0.31+float64(s)*0.05)) + 1e-7*float64(c%13)
	}
	for c := 0; c < nOcn; c++ {
		sst[c] = 290 + 8*math.Sin(float64(c)*0.09-float64(s)*0.02)
	}
	return Snapshot{
		Step:    s,
		SimTime: float64(s) * 480,
		Fields: []Field{
			{Name: PsField, Data: ps},
			{Name: WindField, Data: wind},
			{Name: SSTField, Data: sst},
		},
	}
}

// buildStore writes n synthetic snapshots into a fresh store under t's
// temp dir and returns the directory.
func buildStore(t testing.TB, n, nAtm, nOcn int) string {
	t.Helper()
	dir := filepath.Join(t.TempDir(), "store")
	w, err := Create(dir, 0, nil)
	if err != nil {
		t.Fatalf("Create: %v", err)
	}
	for s := 0; s < n; s++ {
		if err := w.Append(synthSnapshot(s, nAtm, nOcn)); err != nil {
			t.Fatalf("Append %d: %v", s, err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	return dir
}

// TestRoundTripMatchesQuantizer pins the core contract: every decode path —
// full field, point, region — must agree bit-for-bit with
// precision.GroupScaled's own round trip of the original data.
func TestRoundTripMatchesQuantizer(t *testing.T) {
	const snaps, nAtm, nOcn = 6, 257, 130 // deliberately not multiples of the group
	dir := buildStore(t, snaps, nAtm, nOcn)
	st, err := Open(dir, nil)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer st.Close()
	if st.Snapshots() != snaps {
		t.Fatalf("Snapshots() = %d, want %d", st.Snapshots(), snaps)
	}
	if st.Group() != DefaultGroup {
		t.Fatalf("Group() = %d, want %d", st.Group(), DefaultGroup)
	}
	// The archive exists to be cheaper than the float64 fields it holds.
	raw := int64(8 * snaps * (2*nAtm + nOcn))
	if fi, err := os.Stat(filepath.Join(dir, DataFile)); err != nil {
		t.Fatal(err)
	} else if fi.Size() >= raw {
		t.Fatalf("%s holds %d bytes, want fewer than the raw %d", DataFile, fi.Size(), raw)
	}
	for s := 0; s < snaps; s++ {
		orig := synthSnapshot(s, nAtm, nOcn)
		step, sim, err := st.Meta(s)
		if err != nil || step != orig.Step || sim != orig.SimTime {
			t.Fatalf("Meta(%d) = %d, %v, %v; want %d, %v", s, step, sim, err, orig.Step, orig.SimTime)
		}
		for _, f := range orig.Fields {
			gs, err := precision.EncodeGroupScaled(f.Data, DefaultGroup)
			if err != nil {
				t.Fatalf("reference encode: %v", err)
			}
			want := gs.Decode(nil)
			got, err := st.DecodeField(s, f.Name)
			if err != nil {
				t.Fatalf("DecodeField(%d, %s): %v", s, f.Name, err)
			}
			for c := range want {
				if got[c] != want[c] {
					t.Fatalf("snapshot %d %s[%d] = %v, want quantizer round trip %v", s, f.Name, c, got[c], want[c])
				}
			}
			// Point decode must agree with the full decode exactly.
			for _, c := range []int{0, 1, DefaultGroup - 1, DefaultGroup, len(want) - 1} {
				v, err := st.Point(s, f.Name, c)
				if err != nil {
					t.Fatalf("Point(%d, %s, %d): %v", s, f.Name, c, err)
				}
				if v != want[c] {
					t.Fatalf("Point(%d, %s, %d) = %v, want %v", s, f.Name, c, v, want[c])
				}
			}
		}
	}
	// Region aggregation over a range straddling group boundaries.
	lo, hi := DefaultGroup-5, 2*DefaultGroup+7
	rs, err := st.RegionSeries(PsField, lo, hi)
	if err != nil {
		t.Fatalf("RegionSeries: %v", err)
	}
	if len(rs) != snaps {
		t.Fatalf("RegionSeries returned %d samples, want %d", len(rs), snaps)
	}
	for s, r := range rs {
		full, _ := st.DecodeField(s, PsField)
		min, max, sum := math.Inf(1), math.Inf(-1), 0.0
		for c := lo; c < hi; c++ {
			v := full[c]
			sum += v
			min = math.Min(min, v)
			max = math.Max(max, v)
		}
		if r.Min != min || r.Max != max || r.Mean != sum/float64(hi-lo) {
			t.Fatalf("region sample %d = {%v %v %v}, want {%v %v %v}", s, r.Min, r.Mean, r.Max, min, sum/float64(hi-lo), max)
		}
	}
}

// TestPointSeriesAndErrors covers series extraction plus the range and
// schema error paths.
func TestPointSeriesAndErrors(t *testing.T) {
	dir := buildStore(t, 4, 100, 50)
	st, err := Open(dir, nil)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer st.Close()
	series, err := st.PointSeries(WindField, 7)
	if err != nil {
		t.Fatalf("PointSeries: %v", err)
	}
	if len(series) != 4 {
		t.Fatalf("series length %d, want 4", len(series))
	}
	for i, smp := range series {
		if smp.Snap != i || smp.Step != i {
			t.Fatalf("sample %d = %+v", i, smp)
		}
	}
	if _, err := st.Point(0, "no.such", 0); err == nil {
		t.Fatal("Point on unknown field succeeded")
	}
	if _, err := st.Point(0, PsField, 100); err == nil {
		t.Fatal("Point past the field length succeeded")
	}
	if _, err := st.Point(99, PsField, 0); err == nil {
		t.Fatal("Point past the snapshot count succeeded")
	}
	if _, err := st.RegionSeries(PsField, 10, 5); err == nil {
		t.Fatal("inverted region succeeded")
	}
	if _, _, err := st.Meta(-1); err == nil {
		t.Fatal("Meta(-1) succeeded")
	}
}

// TestManifestCorruptionTable flips, truncates, and garbles the manifest;
// every mutation must surface as ErrCorrupt or ErrTruncated, never a panic
// or a silent success.
func TestManifestCorruptionTable(t *testing.T) {
	dir := buildStore(t, 3, 90, 40)
	path := filepath.Join(dir, ManifestFile)
	good, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	mutate := func(name string, f func([]byte) []byte) {
		bad := f(append([]byte(nil), good...))
		if err := os.WriteFile(path, bad, 0o644); err != nil {
			t.Fatal(err)
		}
		_, err := Open(dir, nil)
		if err == nil {
			t.Fatalf("%s: Open accepted a corrupt manifest", name)
		}
		if !errors.Is(err, ErrCorrupt) && !errors.Is(err, ErrTruncated) {
			t.Fatalf("%s: error %v is neither ErrCorrupt nor ErrTruncated", name, err)
		}
	}
	mutate("truncated half", func(b []byte) []byte { return b[:len(b)/2] })
	mutate("truncated trailer", func(b []byte) []byte { return b[:len(b)-3] })
	mutate("empty", func(b []byte) []byte { return nil })
	mutate("bad magic", func(b []byte) []byte { b[0] ^= 0xff; return b })
	mutate("payload bitflip", func(b []byte) []byte { b[len(b)/2] ^= 0x10; return b })
	mutate("trailer bitflip", func(b []byte) []byte { b[len(b)-1] ^= 0x01; return b })
	// Restore and confirm the good manifest still opens.
	if err := os.WriteFile(path, good, 0o644); err != nil {
		t.Fatal(err)
	}
	st, err := Open(dir, nil)
	if err != nil {
		t.Fatalf("reopening the restored store: %v", err)
	}
	st.Close()
}

// TestDataCorruptionDetected flips one byte of one blob in the data file:
// every query class that touches the blob must fail its CRC with ErrCorrupt,
// whether it is the first to touch it or not, and queries that stay clear of
// it must still answer.
func TestDataCorruptionDetected(t *testing.T) {
	const snaps, nAtm, nOcn = 3, 80, 40
	dir := buildStore(t, snaps, nAtm, nOcn)
	probe, err := Open(dir, nil)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	// The victim: atm.wind10m of snapshot 1, a byte in the middle of its values.
	const badSnap, badField = 1, 1
	man := probe.v.Load().man
	off := man.Snaps[badSnap].Off[badField] + blobLen(nAtm, man.Group)/2
	probe.Close()
	data := filepath.Join(dir, DataFile)
	b, err := os.ReadFile(data)
	if err != nil {
		t.Fatal(err)
	}
	b[off] ^= 0x40
	if err := os.WriteFile(data, b, 0o644); err != nil {
		t.Fatal(err)
	}

	query := make([]float64, nAtm)
	touching := map[string]func(*Store) error{
		"Point":             func(st *Store) error { _, err := st.Point(badSnap, WindField, 3); return err },
		"PointSeries":       func(st *Store) error { _, err := st.PointSeries(WindField, 3); return err },
		"RegionSeries":      func(st *Store) error { _, err := st.RegionSeries(WindField, 0, 10); return err },
		"DecodeField":       func(st *Store) error { _, err := st.DecodeField(badSnap, WindField); return err },
		"Diagnostics":       func(st *Store) error { _, err := st.Diagnostics(badSnap); return err },
		"diagSeries":        func(st *Store) error { _, err := st.diagSeries(context.Background()); return err },
		"NearestAnalogs":    func(st *Store) error { _, err := st.NearestAnalogs(WindField, query, 2, 2); return err },
		"BruteForceAnalogs": func(st *Store) error { _, err := st.BruteForceAnalogs(WindField, query, 2); return err },
	}
	for name, q := range touching {
		// A fresh Store each, so every class is once the first to touch the blob.
		st, err := Open(dir, nil)
		if err != nil {
			t.Fatalf("Open: %v", err)
		}
		for attempt := 0; attempt < 2; attempt++ {
			if err := q(st); !errors.Is(err, ErrCorrupt) {
				t.Errorf("%s, attempt %d: error %v, want ErrCorrupt", name, attempt, err)
			}
		}
		st.Close()
	}

	st, err := Open(dir, nil)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer st.Close()
	if _, err := st.Point(0, WindField, 3); err != nil {
		t.Errorf("Point on an intact snapshot: %v", err)
	}
	if _, err := st.PointSeries(PsField, 3); err != nil {
		t.Errorf("PointSeries on an intact field: %v", err)
	}
	if _, err := st.Diagnostics(badSnap + 1); err != nil {
		t.Errorf("Diagnostics on an intact snapshot: %v", err)
	}
}

// TestSchemaEnforced pins the fixed-schema contract: a snapshot with a
// different field set or length is rejected.
func TestSchemaEnforced(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "store")
	w, err := Create(dir, 16, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	if err := w.Append(Snapshot{Step: 0, Fields: []Field{{Name: "a", Data: make([]float64, 10)}}}); err != nil {
		t.Fatalf("first Append: %v", err)
	}
	if err := w.Append(Snapshot{Step: 1, Fields: []Field{{Name: "b", Data: make([]float64, 10)}}}); err == nil {
		t.Fatal("renamed field accepted")
	}
	if err := w.Append(Snapshot{Step: 1, Fields: []Field{{Name: "a", Data: make([]float64, 11)}}}); err == nil {
		t.Fatal("resized field accepted")
	}
	if err := w.Append(Snapshot{Step: 1}); err == nil {
		t.Fatal("field-less snapshot accepted")
	}
}

// TestAnalogPipelineMatchesBruteForce runs the pruned search at several
// worker counts against the sequential float64 reference: snapshot ids,
// order, and distances must match exactly.
func TestAnalogPipelineMatchesBruteForce(t *testing.T) {
	const snaps = 24
	dir := buildStore(t, snaps, 200, 60)
	st, err := Open(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 5; trial++ {
		qs := rng.Intn(snaps)
		query, err := st.DecodeField(qs, PsField)
		if err != nil {
			t.Fatal(err)
		}
		for _, k := range []int{1, 3, snaps + 5} {
			want, err := st.BruteForceAnalogs(PsField, query, k)
			if err != nil {
				t.Fatal(err)
			}
			for _, workers := range []int{1, 3, 8} {
				got, err := st.NearestAnalogs(PsField, query, k, workers)
				if err != nil {
					t.Fatalf("NearestAnalogs(k=%d, workers=%d): %v", k, workers, err)
				}
				if len(got) != len(want) {
					t.Fatalf("k=%d workers=%d: %d results, want %d", k, workers, len(got), len(want))
				}
				for i := range want {
					if got[i].Snap != want[i].Snap || got[i].Dist != want[i].Dist {
						t.Fatalf("k=%d workers=%d result %d = {%d %v}, want {%d %v}",
							k, workers, i, got[i].Snap, got[i].Dist, want[i].Snap, want[i].Dist)
					}
				}
			}
		}
		// The query snapshot itself must always rank first at distance 0.
		top, err := st.NearestAnalogs(PsField, query, 1, 4)
		if err != nil {
			t.Fatal(err)
		}
		if len(top) != 1 || top[0].Snap != qs || top[0].Dist != 0 {
			t.Fatalf("self-query top analog = %+v, want snapshot %d at distance 0", top, qs)
		}
	}
}

// TestDiagnostics pins the derived-diagnostic endpoints against a direct
// scan of the decoded fields, including the optional residual fields.
func TestDiagnostics(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "store")
	w, err := Create(dir, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	s := synthSnapshot(3, 120, 40)
	s.Fields = append(s.Fields,
		Field{Name: HeatResidField, Data: []float64{2.5e-12}},
		Field{Name: FWResidField, Data: []float64{1.25e-13}})
	if err := w.Append(s); err != nil {
		t.Fatal(err)
	}
	w.Close()
	st, err := Open(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	d, err := st.Diagnostics(0)
	if err != nil {
		t.Fatalf("Diagnostics: %v", err)
	}
	ps, _ := st.DecodeField(0, PsField)
	wind, _ := st.DecodeField(0, WindField)
	minPs, minCell := math.Inf(1), -1
	for c, v := range ps {
		if v < minPs {
			minPs, minCell = v, c
		}
	}
	maxW, maxCell := math.Inf(-1), -1
	for c, v := range wind {
		if v > maxW {
			maxW, maxCell = v, c
		}
	}
	if d.MinPs != minPs || d.MinPsCell != minCell {
		t.Fatalf("MinPs = %v@%d, want %v@%d", d.MinPs, d.MinPsCell, minPs, minCell)
	}
	if d.MaxWind != maxW || d.MaxWindCell != maxCell {
		t.Fatalf("MaxWind = %v@%d, want %v@%d", d.MaxWind, d.MaxWindCell, maxW, maxCell)
	}
	if d.HeatResid == 0 || d.FWResid == 0 {
		t.Fatalf("residuals not surfaced: %+v", d)
	}
	// The stored residual went through quantization; it must round-trip to
	// within a float32 mantissa of the original.
	if rel := math.Abs(d.HeatResid-2.5e-12) / 2.5e-12; rel > 1.3e-7 {
		t.Fatalf("heat residual %v drifted %v relative from 2.5e-12", d.HeatResid, rel)
	}
}
