// Command bench is the repository's benchmark: four workloads (the coupled
// model on 1 and 2 ranks, the same run under the fault-tolerant supervisor,
// and the forecast-state server), each run as laps with fresh state and
// every lap's output checked. See README.md for the metrics, the workloads
// and the reasons for both.
//
//	bench --workload NAME --seed N --seconds S --trace 0|1   one workload, one JSON result line
//	bench [-seed N] [-out FILE] [-spans FILE]                every workload, laps interleaved, then the traced run
//	bench -calibrate                                         two sets of ten runs per workload and their spreads
//	bench -smoke                                             1 lap, 40 steps, 50 sessions
//	bench -manifest                                          BENCHMARK.json, from the tables in this package
package main

import (
	"crypto/sha256"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strconv"
	"strings"
)

// workloadDef names one workload and why it is there.
type workloadDef struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

var workloads = []workloadDef{
	{"coupled_r1", "plain 1-rank baseline: atmosphere is 97% of the op and no message is sent, so kernel and column-physics work shows here"},
	{"coupled_r2", "same problem on 2 ranks: adds halos, par hand-off, rearrange and rank wait to identical arithmetic; a comms change moves only this one"},
	{"resilient_r1", "coupled_r1 under RunResilient: a checkpoint every step and two seeded rollbacks, so restart, pario and fault cost is its difference from coupled_r1"},
	{"serve_mix", "statestore through the HTTP handler: point, series, region, analog and diag queries beside appends; no model code runs, so model changes bypass it"},
}

const (
	minLaps   = 4  // laps pooled per workload and run, whatever -seconds says
	setupReps = 32 // set-up-only laps per workload and run, besides the laps' own set-ups
)

// gitRev is the source revision for the host record; run.sh sets it at link
// time where the checkout is a git repository.
var gitRev = "unknown"

// result is the contract's last line of standard output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// hostRecord goes into every output. Diagnostics, never gated.
type hostRecord struct {
	Nproc        int            `json:"nproc"`
	GOMAXPROCS   int            `json:"gomaxprocs"`
	GoVersion    string         `json:"go_version"`
	GitRevision  string         `json:"git_revision"`
	Seed         int64          `json:"seed"`
	Laps         map[string]int `json:"laps"`
	LoadavgStart float64        `json:"loadavg_start"`
	LoadavgEnd   float64        `json:"loadavg_end"`
}

// report is the -out file: the host and one result per workload and mode.
type report struct {
	Host     hostRecord         `json:"host"`
	EndToEnd map[string]result  `json:"end_to_end,omitempty"`
	RawTimes map[string]metrics `json:"raw_times,omitempty"`
	PerLayer map[string]result  `json:"per_layer,omitempty"`
}

// bench holds what the laps of one invocation share.
type bench struct {
	seed    int64
	seconds float64
	smoke   bool
	dir     string // this process's scratch directory
	cache   string // survives the process: the reference state hash

	serveIn *serveInput
	ref     uint64 // state hash every model lap must reproduce
	haveRef bool
	laps    map[string]int
}

// options are the command line.
type options struct {
	workload         string
	seed             int64
	seconds          float64
	trace            int
	out, spans       string
	workdir          string
	smoke, calibrate bool
}

func main() {
	var o options
	flag.StringVar(&o.workload, "workload", "", "run only this workload (default: all, laps interleaved)")
	flag.Int64Var(&o.seed, "seed", 1, "seed of the serve query stream and the resilient fault steps")
	flag.Float64Var(&o.seconds, "seconds", 12, "timed seconds per workload; at least 4 laps run whatever this says")
	flag.IntVar(&o.trace, "trace", -1, "0: end-to-end metrics, tracing off; 1: the traced run's per-layer metrics; default both")
	flag.StringVar(&o.out, "out", "", "write the full report as JSON to this file")
	flag.StringVar(&o.spans, "spans", "", "write the traced run's spans as JSON lines to this file")
	flag.BoolVar(&o.smoke, "smoke", false, "1 lap, 40 steps, 50 sessions: exercises every path, measures nothing")
	flag.BoolVar(&o.calibrate, "calibrate", false, "run two sets of ten runs per workload and print their spreads")
	flag.StringVar(&o.workdir, "workdir", ".bench_build", "directory for restart sets, stores and the reference-hash cache")
	manifest := flag.Bool("manifest", false, "print BENCHMARK.json from the workload and metric tables and exit")
	flag.Parse()

	if *manifest {
		printManifest(int(o.seconds))
		return
	}
	if err := run(o); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

func run(o options) error {
	workload, seed, trace := o.workload, o.seed, o.trace
	names, err := workloadNames(workload)
	if err != nil {
		return err
	}
	if o.calibrate {
		return calibrate(names, int(o.seconds))
	}
	if err := os.MkdirAll(o.workdir, 0o755); err != nil {
		return err
	}
	dir, err := os.MkdirTemp(o.workdir, "run-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	b := &bench{seed: seed, seconds: o.seconds, smoke: o.smoke, dir: dir, cache: o.workdir, laps: map[string]int{}}

	host := hostRecord{
		Nproc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(),
		GitRevision: gitRev, Seed: seed, Laps: b.laps, LoadavgStart: loadavg(),
	}
	if host.LoadavgStart > float64(host.Nproc)/2 {
		fmt.Fprintf(os.Stderr, "bench: warning: 1-min load %.2f exceeds nproc/2 = %.1f; timings will carry the neighbours\n",
			host.LoadavgStart, float64(host.Nproc)/2)
	}
	rep := report{}
	if trace != 1 {
		if rep.EndToEnd, rep.RawTimes, err = b.measure(names); err != nil {
			return err
		}
	}
	if trace != 0 {
		var recs []*recorder
		if rep.PerLayer, recs, err = b.traced(names); err != nil {
			return err
		}
		if o.spans != "" {
			if err := writeSpans(o.spans, recs); err != nil {
				return err
			}
		}
	}
	host.LoadavgEnd = loadavg()
	rep.Host = host

	hostJSON, _ := json.Marshal(host)
	fmt.Printf("host %s\n", hostJSON)
	for _, name := range names {
		printResult(name, "end_to_end", rep.EndToEnd[name], endToEnd)
		if raw := rep.RawTimes[name]; raw != nil {
			fmt.Printf("%s raw times (not gated): %.4g ops/s, op p10 %.4g p50 %.4g p90 %.4g max %.4g ms, set-up median %.4g s\n", name,
				raw["harness.ops_per_s"], raw["harness.op_ms_p10"], raw["harness.op_ms_p50"], raw["harness.op_ms_p90"],
				raw["harness.op_ms_max"], raw["harness.setup_s_median"])
		}
		printResult(name, "per_layer", rep.PerLayer[name], perLayer)
	}
	if o.out != "" {
		data, _ := json.MarshalIndent(rep, "", "  ")
		if err := os.WriteFile(o.out, append(data, '\n'), 0o644); err != nil {
			return err
		}
	}
	if workload != "" && trace >= 0 {
		// The contract's result line, last on standard output.
		res := rep.EndToEnd[workload]
		if trace == 1 {
			res = rep.PerLayer[workload]
		}
		line, _ := json.Marshal(res)
		fmt.Printf("%s\n", line)
	}
	return nil
}

// printManifest prints BENCHMARK.json. The per-layer entries carry no bound.
func printManifest(seconds int) {
	type layerDef struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	}
	layers := make([]layerDef, len(perLayer))
	for i, d := range perLayer {
		layers[i] = layerDef{d.Name, d.Unit, d.Better}
	}
	data, _ := json.MarshalIndent(map[string]any{
		"command":     []string{"bash", "bench/run.sh"},
		"paths":       []string{"bench"},
		"run_seconds": seconds,
		"workloads":   workloads,
		"end_to_end":  endToEnd,
		"per_layer":   layers,
	}, "", "  ")
	fmt.Printf("%s\n", data)
}

func workloadNames(only string) ([]string, error) {
	var all []string
	for _, w := range workloads {
		if w.Name == only {
			return []string{only}, nil
		}
		all = append(all, w.Name)
	}
	if only != "" {
		return nil, fmt.Errorf("unknown workload %q (have %s)", only, strings.Join(all, ", "))
	}
	return all, nil
}

// printResult prints every metric of one result by name, with its unit
// and, for the end-to-end metrics, its bound.
func printResult(workload, kind string, res result, defs []metricDef) {
	if res.Metrics == nil {
		return
	}
	fmt.Printf("%s %s: correct=%v attempted=%d failed=%d\n", workload, kind, res.Correct, res.Attempted, res.Failed)
	for _, d := range defs {
		v := res.Metrics[d.Name]
		bound := ""
		if d.Bound > 0 {
			bound = fmt.Sprintf("  bound %.2f", d.Bound)
		}
		fmt.Printf("  %-34s %14.6g %-5s %s is better%s\n", d.Name, v.Value, v.Unit, d.Better, bound)
	}
}

// specs returns the lap shape of a workload, model or serve.
func (b *bench) specs(name string, observe bool) (modelSpec, serveSpec) {
	m := modelSpec{ranks: 1, warm: warmSteps, ops: lapOps, observe: observe}
	sv := serveSpec{initial: 128, warm: 50, sessions: 512, appendEvery: 64}
	if b.smoke {
		m.ops = smokeOps
		sv = serveSpec{initial: 32, warm: 5, sessions: 50, appendEvery: 16}
	}
	switch name {
	case "coupled_r2":
		m.ranks = 2
	case "resilient_r1":
		m.resilient = true
	}
	return m, sv
}

// lap runs lap number i of a workload with fresh state. For the model
// workloads it also holds the lap's final state against the reference hash:
// rank invariance for coupled_r2, bit-for-bit recovery for resilient_r1.
// With setupOnly the lap ends when its first step or session has completed,
// and all it returns is that set-up time.
func (b *bench) lap(name string, i int, setupOnly, observe bool, rec *recorder) (lapResult, error) {
	dir := filepath.Join(b.dir, fmt.Sprintf("%s-%d", name, i))
	m, sv := b.specs(name, observe)
	if !setupOnly {
		b.laps[name]++
	}
	if name == "serve_mix" {
		if b.serveIn == nil {
			var err error
			if b.serveIn, err = captureServeInput(sv.snapshots()); err != nil {
				return lapResult{}, err
			}
		}
		if setupOnly {
			sv.warm, sv.sessions = 1, 0
		}
		return serveLap(b.serveIn, sv, b.seed, i, dir, rec)
	}
	if setupOnly {
		m.warm, m.ops = 1, 0
		return modelLap(m, b.seed, i, dir, rec)
	}
	res, err := modelLap(m, b.seed, i, dir, rec)
	if err != nil {
		return res, err
	}
	if !b.haveRef {
		if name == "coupled_r1" {
			b.ref, b.haveRef = res.hash, true // the first coupled_r1 lap is the reference
			b.storeReference(m.totalSteps())
		} else if err := b.loadReference(m); err != nil {
			return res, err
		}
	}
	if res.hash != b.ref && res.gate == nil {
		res.gate = fmt.Errorf("%s lap %d: final state hash %016x, reference %016x", name, i, res.hash, b.ref)
		res.failed = m.ops
	}
	return res, nil
}

// The reference hash is the final state of a fault-free 1-rank run. An
// invocation that runs only coupled_r2 or resilient_r1 would pay a whole
// extra lap for it, so it is kept beside the build, keyed by the executable:
// the state is a function of the code alone.
func (b *bench) referencePath(total int) string {
	key := "unknown"
	if exe, err := os.Executable(); err == nil {
		if data, err := os.ReadFile(exe); err == nil {
			key = fmt.Sprintf("%x", sha256.Sum256(data))[:16]
		}
	}
	return filepath.Join(b.cache, fmt.Sprintf("refhash-%s-%d", key, total))
}

func (b *bench) storeReference(total int) {
	// Best effort: without the file the next invocation computes it again.
	_ = os.WriteFile(b.referencePath(total), []byte(strconv.FormatUint(b.ref, 16)), 0o644)
}

func (b *bench) loadReference(spec modelSpec) error {
	total := spec.totalSteps()
	if data, err := os.ReadFile(b.referencePath(total)); err == nil {
		if v, err := strconv.ParseUint(strings.TrimSpace(string(data)), 16, 64); err == nil {
			b.ref, b.haveRef = v, true
			return nil
		}
	}
	res, err := modelLap(modelSpec{ranks: 1, warm: spec.warm, ops: spec.ops}, b.seed, 0, filepath.Join(b.dir, "reference"), nil)
	if err != nil {
		return err
	}
	if res.gate != nil {
		return fmt.Errorf("reference run: %w", res.gate)
	}
	b.ref, b.haveRef = res.hash, true
	b.storeReference(total)
	return nil
}

// lapSet pools the laps and set-up samples of one workload.
type lapSet struct {
	laps   []lapResult
	setups []float64 // seconds: every lap's and every set-up-only lap's
}

func (s *lapSet) add(l lapResult) {
	s.laps = append(s.laps, l)
	s.setups = append(s.setups, l.setup.Seconds())
}

func (s *lapSet) timedSeconds() float64 {
	t := 0.0
	for _, v := range s.opMs() {
		t += v
	}
	return t / 1e3
}

func (s *lapSet) opMs() []float64 {
	var all []float64
	for _, l := range s.laps {
		all = append(all, l.opMs...)
	}
	return all
}

// bestOp is the op time with the neighbours taken out. On this shared host
// interference only adds time, and it comes in spells that move a median by
// half; so each part of an op (a coupling step, a query class) is timed
// apart, the fastest sample of each part over all laps is kept, and the
// parts are summed. A 23 ms step escapes a spell far more often than a
// 115 ms op does.
func bestOp(laps ...lapResult) float64 {
	total := 0.0
	for k := range laps[0].parts {
		best := math.Inf(1)
		for _, l := range laps {
			for _, v := range l.parts[k] {
				best = math.Min(best, v)
			}
		}
		if !math.IsInf(best, 1) { // a part no lap ran adds nothing
			total += best
		}
	}
	return total
}

// outcome counts ops attempted and failed and joins the laps' gate errors.
func (s *lapSet) outcome() (attempted, failed int, err error) {
	var errs []error
	for _, l := range s.laps {
		attempted += len(l.opMs)
		failed += l.failed
		if l.gate != nil {
			errs = append(errs, l.gate)
		}
	}
	return attempted, failed, errors.Join(errs...)
}

// measure runs the untraced laps: round-robin across the workloads, so a
// spell from a neighbour lands on one lap of each, until every workload has
// minLaps laps and -seconds of timed ops. Before its laps each workload
// sets up setupReps times over, stopping at the first step or session.
func (b *bench) measure(names []string) (map[string]result, map[string]metrics, error) {
	sets := map[string]*lapSet{}
	want, reps := minLaps, setupReps
	if b.smoke {
		want, reps = 1, 2
	}
	for _, n := range names {
		sets[n] = &lapSet{}
		for i := 0; i < reps; i++ {
			l, err := b.lap(n, i, true, false, nil)
			if err != nil {
				return nil, nil, fmt.Errorf("%s set-up %d: %w", n, i, err)
			}
			sets[n].setups = append(sets[n].setups, l.setup.Seconds())
		}
	}
	for i, more := 0, true; more; i++ {
		more = false
		for _, n := range names {
			s := sets[n]
			if len(s.laps) >= want && (b.smoke || s.timedSeconds() >= b.seconds) {
				continue
			}
			l, err := b.lap(n, i, false, false, nil)
			if err != nil {
				return nil, nil, fmt.Errorf("%s lap %d: %w", n, i, err)
			}
			s.add(l)
			more = true
		}
	}
	out, diag := map[string]result{}, map[string]metrics{}
	for _, n := range names {
		s := sets[n]
		var heap []float64
		for _, l := range s.laps {
			heap = append(heap, l.heapMB)
		}
		vals := map[string]float64{
			"setup_s":      slices.Min(s.setups),
			"op_ms_best":   bestOp(s.laps...),
			"heap_live_mb": median(heap),
		}
		out[n] = b.result(n, s, vals, endToEnd)
		diag[n] = rawTimes(s)
	}
	return out, diag, nil
}

// rawTimes are the plain statistics of the whole-op and set-up times, what
// the neighbours leave of them included. Diagnostics: they are printed and
// never gated.
func rawTimes(s *lapSet) metrics {
	ops := s.opMs()
	return metrics{
		"harness.ops_per_s":      pooledOpsPerSec(ops),
		"harness.op_ms_p10":      percentile(ops, 0.1),
		"harness.op_ms_p50":      percentile(ops, 0.5),
		"harness.op_ms_p90":      percentile(ops, 0.9),
		"harness.op_ms_max":      percentile(ops, 1),
		"harness.setup_s_median": median(s.setups),
	}
}

// result packs one workload's metrics with the lap outcomes.
func (b *bench) result(name string, s *lapSet, vals map[string]float64, defs []metricDef) result {
	attempted, failed, gate := s.outcome()
	if gate != nil {
		fmt.Fprintf(os.Stderr, "bench: %s failed its correctness gate:\n%v\n", name, gate)
	}
	res := result{Correct: failed == 0, Attempted: attempted, Failed: failed, Metrics: map[string]metricValue{}}
	for _, d := range defs {
		res.Metrics[d.Name] = metricValue{Value: vals[d.Name], Unit: d.Unit}
	}
	return res
}

// loadavg returns the 1-minute load average, 0 where /proc has none.
func loadavg() float64 {
	data, err := os.ReadFile("/proc/loadavg")
	if err != nil {
		return 0
	}
	v, _ := strconv.ParseFloat(strings.Fields(string(data))[0], 64)
	return v
}
