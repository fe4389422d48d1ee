package main

import (
	"encoding/json"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"testing"
	"time"
)

func TestPercentile(t *testing.T) {
	xs := []float64{50, 10, 40, 20, 30}
	for _, c := range []struct{ p, want float64 }{{0, 10}, {0.1, 14}, {0.5, 30}, {0.9, 46}, {1, 50}} {
		if got := percentile(xs, c.p); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("percentile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
	if xs[0] != 50 {
		t.Error("percentile sorted its argument in place")
	}
	if got := percentile(nil, 0.5); got != 0 {
		t.Errorf("percentile of no samples = %v, want 0", got)
	}
}

// The reference values are Python's statistics.quantiles(xs, n=4).
func TestQuartilesMatchPython(t *testing.T) {
	got := quartiles([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10})
	if want := [3]float64{2.75, 5.5, 8.25}; got != want {
		t.Errorf("quartiles(1..10) = %v, want %v", got, want)
	}
	got = quartiles([]float64{9, 3, 7, 1, 12})
	if want := [3]float64{2, 7, 10.5}; got != want {
		t.Errorf("quartiles(5 values) = %v, want %v", got, want)
	}
}

func TestPooledOpsPerSec(t *testing.T) {
	// Two laps pooled: 3 ops in 300 ms and 1 op in 200 ms are 4 ops in 0.5 s,
	// not the mean of the laps' own rates (10/s and 5/s).
	if got := pooledOpsPerSec([]float64{100, 100, 100, 200}); math.Abs(got-8) > 1e-12 {
		t.Errorf("pooled throughput = %v, want 8", got)
	}
	if got := pooledOpsPerSec(nil); got != 0 {
		t.Errorf("pooled throughput of no ops = %v, want 0", got)
	}
}

func TestSpanSelfTime(t *testing.T) {
	r := newRecorder("t")
	r.spans = []span{
		{Name: "op", Parent: -1, StartNs: 0, EndNs: 100},
		{Name: "step", Parent: 0, StartNs: 10, EndNs: 40},
		{Name: "halo", Parent: 1, StartNs: 20, EndNs: 25},
		{Name: "step", Parent: 0, StartNs: 50, EndNs: 90},
	}
	want := map[string]time.Duration{"op": 30, "step": 65, "halo": 5}
	if got := r.selfTimes(); !reflect.DeepEqual(got, want) {
		t.Errorf("self times = %v, want %v", got, want)
	}
}

func TestRecorderNests(t *testing.T) {
	r := newRecorder("t")
	a := r.begin("a")
	r.setOp(3)
	b := r.begin("b")
	r.end(b)
	r.end(a)
	if r.spans[b].Parent != a || r.spans[a].Parent != -1 || r.spans[b].Op != 3 || r.spans[a].Op != -1 {
		t.Errorf("spans = %+v", r.spans)
	}
	var none *recorder
	none.end(none.begin("x")) // a nil recorder records nothing and must not panic
}

func TestFaultHitsPureAndInWindow(t *testing.T) {
	total := warmSteps + lapOps*stepsPerOp
	seen := map[[2]int]bool{}
	for seed := int64(1); seed <= 20; seed++ {
		for lap := 0; lap < 4; lap++ {
			n1, i1 := faultHits(seed, lap, total)
			n2, i2 := faultHits(seed, lap, total)
			if n1 != n2 || i1 != i2 {
				t.Fatalf("faultHits(%d, %d) is not a function of its arguments", seed, lap)
			}
			for _, h := range []int{n1, i1} {
				if h < 40 || h > 160 {
					t.Errorf("faultHits(%d, %d) gave %d outside [40, 160]", seed, lap, h)
				}
			}
			seen[[2]int{n1, i1}] = true
		}
	}
	if len(seen) < 40 {
		t.Errorf("80 (seed, lap) pairs gave only %d distinct fault positions", len(seen))
	}
}

func TestQueryStreamPureFunctionOfSeed(t *testing.T) {
	in := &serveInput{ref: [][][]float64{{make([]float64, 642), make([]float64, 642), make([]float64, 1152), make([]float64, 1152)}}}
	stream := func(seed int64) []query {
		rng := rand.New(rand.NewSource(seed))
		var all, qs []query
		for s := 0; s < 3; s++ {
			qs = sessionQueries(rng, in, 128+s, qs)
			all = append(all, qs...)
		}
		return all
	}
	a, b, c := stream(7), stream(7), stream(8)
	if !reflect.DeepEqual(a, b) {
		t.Error("the same seed gave two query streams")
	}
	if reflect.DeepEqual(a, c) {
		t.Error("two seeds gave the same query stream")
	}
	if want := 3 * (1 + nPoint + nSeries + nRegion + nAnalogs + nDiag); len(a) != want {
		t.Errorf("3 sessions hold %d queries, want %d", len(a), want)
	}
}

func TestBenchmarkJSONMatchesTables(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var man struct {
		Command    []string      `json:"command"`
		Paths      []string      `json:"paths"`
		RunSeconds int           `json:"run_seconds"`
		Workloads  []workloadDef `json:"workloads"`
		EndToEnd   []metricDef   `json:"end_to_end"`
		PerLayer   []metricDef   `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &man); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(man.Workloads, workloads) {
		t.Error("BENCHMARK.json workloads differ from the workloads table; regenerate with -manifest")
	}
	if !reflect.DeepEqual(man.EndToEnd, endToEnd) {
		t.Error("BENCHMARK.json end_to_end differs from the endToEnd table; regenerate with -manifest")
	}
	if !reflect.DeepEqual(man.PerLayer, perLayer) {
		t.Error("BENCHMARK.json per_layer differs from the perLayer table; regenerate with -manifest")
	}
	if man.RunSeconds < 1 || man.RunSeconds > 60 {
		t.Errorf("run_seconds = %d", man.RunSeconds)
	}
}

func TestNamesUnitsBounds(t *testing.T) {
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	check := func(n string) {
		if !name.MatchString(n) {
			t.Errorf("name %q is outside [A-Za-z0-9_.-]{1,64}", n)
		}
		if seen[n] {
			t.Errorf("name %q is used twice", n)
		}
		seen[n] = true
	}
	for _, w := range workloads {
		check(w.Name)
		if len(w.Why) == 0 || len(w.Why) > 200 {
			t.Errorf("workload %s: why has %d characters", w.Name, len(w.Why))
		}
	}
	setup := false
	for _, d := range endToEnd {
		check(d.Name)
		if !unit.MatchString(d.Unit) {
			t.Errorf("%s: unit %q", d.Name, d.Unit)
		}
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", d.Name, d.Bound)
		}
		if d.Name == "setup_s" {
			setup = d.Unit == "s" && d.Better == lower
			for _, o := range endToEnd {
				if o.Bound > d.Bound {
					t.Errorf("setup_s bound %v is below %s's %v", d.Bound, o.Name, o.Bound)
				}
			}
		}
	}
	if !setup {
		t.Error("no setup_s metric in s, lower is better")
	}
	for _, d := range perLayer {
		check(d.Name)
		if !unit.MatchString(d.Unit) {
			t.Errorf("%s: unit %q", d.Name, d.Unit)
		}
		if d.Better != lower && d.Better != higher {
			t.Errorf("%s: better = %q", d.Name, d.Better)
		}
		if d.Bound != 0 {
			t.Errorf("%s: a per-layer metric carries no bound", d.Name)
		}
	}
	if len(perLayer) > 128 {
		t.Errorf("%d per-layer metrics, the contract allows 128", len(perLayer))
	}
}

// emitted checks a report section: every workload present, correct, and
// carrying exactly the metrics of its table.
func emitted(t *testing.T, kind string, got map[string]result, defs []metricDef) {
	t.Helper()
	for _, w := range workloads {
		res, ok := got[w.Name]
		if !ok {
			t.Errorf("%s: no %s result", w.Name, kind)
			continue
		}
		if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
			t.Errorf("%s %s: correct=%v attempted=%d failed=%d", w.Name, kind, res.Correct, res.Attempted, res.Failed)
		}
		if len(res.Metrics) != len(defs) {
			t.Errorf("%s %s: %d metrics, table has %d", w.Name, kind, len(res.Metrics), len(defs))
		}
		for _, d := range defs {
			v, ok := res.Metrics[d.Name]
			if !ok || v.Unit != d.Unit || math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
				t.Errorf("%s %s: metric %s = %+v (present %v)", w.Name, kind, d.Name, v, ok)
			}
		}
	}
}

// smokeRun runs every workload at smoke size and returns the report and the
// path of the spans file.
func smokeRun(t *testing.T, trace int) (report, string) {
	t.Helper()
	dir := t.TempDir()
	out, spans := filepath.Join(dir, "report.json"), filepath.Join(dir, "spans.jsonl")
	o := options{seed: 5, trace: trace, out: out, spans: spans, workdir: filepath.Join(dir, "work"), smoke: true}
	if err := run(o); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	var rep report
	if err := json.Unmarshal(data, &rep); err != nil {
		t.Fatal(err)
	}
	if rep.Host.Nproc < 1 || rep.Host.GoVersion == "" || rep.Host.Seed != 5 {
		t.Errorf("host record = %+v", rep.Host)
	}
	return rep, spans
}

// TestSmoke runs every workload's untraced path end to end at smoke size:
// 1 lap, 40 steps, 50 sessions, every correctness gate included.
func TestSmoke(t *testing.T) {
	rep, _ := smokeRun(t, 0)
	emitted(t, "end_to_end", rep.EndToEnd, endToEnd)
	for _, w := range workloads {
		for name, v := range rep.EndToEnd[w.Name].Metrics {
			if v.Value <= 0 {
				t.Errorf("%s: %s = %v, an end-to-end metric is never 0", w.Name, name, v.Value)
			}
		}
		if rep.Host.Laps[w.Name] != 1 {
			t.Errorf("%s ran %d laps, want 1", w.Name, rep.Host.Laps[w.Name])
		}
	}
}

// TestSmokeTraced runs the traced run at smoke size: every per-layer metric
// is emitted, the model's sections cover the 1-rank op, and the message
// counters read exactly 0 on 1 rank and not on 2.
func TestSmokeTraced(t *testing.T) {
	if testing.Short() {
		t.Skip("the traced smoke run takes about 15 s")
	}
	rep, spans := smokeRun(t, 1)
	emitted(t, "per_layer", rep.PerLayer, perLayer)
	r1, r2 := rep.PerLayer["coupled_r1"].Metrics, rep.PerLayer["coupled_r2"].Metrics
	if c := r1["core.section_cover_frac"].Value; c < 0.95 {
		t.Errorf("coupled_r1 section cover = %v, want ≥ 0.95", c)
	}
	for _, name := range []string{"par.p2p_msgs_per_op", "par.p2p_bytes_per_op", "grid.icos_halo_msgs_per_op", "grid.tri_halo_msgs_per_op"} {
		if v := r1[name].Value; v != 0 {
			t.Errorf("coupled_r1 %s = %v, want exactly 0", name, v)
		}
		if v := r2[name].Value; v <= 0 {
			t.Errorf("coupled_r2 %s = %v, want > 0", name, v)
		}
	}
	if v := rep.PerLayer["resilient_r1"].Metrics["core.rollbacks_per_lap"].Value; v != 2 {
		t.Errorf("resilient_r1 rollbacks per lap = %v, want 2", v)
	}
	if v := rep.PerLayer["serve_mix"].Metrics["statestore.cache_hit_frac"].Value; v <= 0 || v > 1 {
		t.Errorf("serve_mix cache hit fraction = %v", v)
	}
	if fi, err := os.Stat(spans); err != nil || fi.Size() == 0 {
		t.Errorf("the traced run wrote no spans: %v", err)
	}
}
