// Command bench3 measures what the atmosphere domain decomposition bought:
// the coupled steps/sec of the decomposed dataflow against the historical
// replicated one at 1, 2, and 4 ranks, the halo-exchange traffic the
// decomposition adds, and the steady-state allocation count of the halo
// hot path. It writes the result as BENCH_3.json next to bench2's
// BENCH_2.json and validates its own output file before exiting — including
// the acceptance gate that the decomposed dataflow is strictly faster than
// the replicated one at the largest rank count.
//
//	bench3 [-config 25v10] [-steps 45] [-schedule seq] [-remap cons] [-out BENCH_3.json]
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"
	"runtime"
	"time"

	"repro/internal/core"
	"repro/internal/grid"
	"repro/internal/obs"
	"repro/internal/par"
	"repro/internal/pp"
)

// rankResult is one rank count's replicated-vs-decomposed comparison.
type rankResult struct {
	Ranks int `json:"ranks"`

	ReplicatedStepsPerSec float64 `json:"replicated_steps_per_sec"`
	DecomposedStepsPerSec float64 `json:"decomposed_steps_per_sec"`
	Speedup               float64 `json:"speedup"`
	ReplicatedSYPD        float64 `json:"replicated_sypd"`
	DecomposedSYPD        float64 `json:"decomposed_sypd"`

	// Halo traffic of the decomposed run (rank 0's counters).
	HaloMsgs  int64 `json:"halo_msgs"`
	HaloBytes int64 `json:"halo_bytes"`
}

// result is the benchmark record scripts/check.sh consumes.
type result struct {
	Name     string `json:"name"`
	Config   string `json:"config"`
	Steps    int    `json:"steps"`
	Backend  string `json:"backend"`
	Schedule string `json:"schedule"`
	Remap    string `json:"remap"`

	Results []rankResult `json:"results"`

	// Steady-state allocation audit of the decomposition hot path
	// (2-rank cell + edge halo exchange).
	HaloAllocsPerExchange float64 `json:"halo_allocs_per_exchange"`

	WallSec   float64 `json:"wall_sec"`
	Timestamp string  `json:"timestamp"`
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("bench3: ")
	label := flag.String("config", "25v10", "coupled configuration label")
	steps := flag.Int("steps", 45, "coupling steps to time per dataflow")
	schedName := flag.String("schedule", "seq", "component schedule (seq or conc)")
	remapName := flag.String("remap", "cons", "flux remap mode (nn or cons)")
	out := flag.String("out", "BENCH_3.json", "output path")
	flag.Parse()

	cfg, err := core.ConfigForLabel(*label)
	if err != nil {
		log.Fatal(err)
	}
	sched, err := core.ParseSchedule(*schedName)
	if err != nil {
		log.Fatal(err)
	}
	remap, err := core.ParseRemap(*remapName)
	if err != nil {
		log.Fatal(err)
	}
	sp := pp.NewHost(0)
	start := time.Date(2023, 7, 21, 0, 0, 0, 0, time.UTC)

	wall := time.Now()
	res := result{
		Name:     "atm-domain-decomposition",
		Config:   cfg.Label,
		Steps:    *steps,
		Backend:  sp.Name(),
		Schedule: sched.String(),
		Remap:    remap.String(),

		HaloAllocsPerExchange: measureHaloAllocs(),
	}
	for _, ranks := range []int{1, 2, 4} {
		rep := runDataflow(cfg, sched, remap, ranks, *steps, false, sp, start)
		dec := runDataflow(cfg, sched, remap, ranks, *steps, true, sp, start)
		rr := rankResult{
			Ranks:                 ranks,
			ReplicatedStepsPerSec: rep.stepsPerSec,
			DecomposedStepsPerSec: dec.stepsPerSec,
			ReplicatedSYPD:        rep.sypd,
			DecomposedSYPD:        dec.sypd,
			HaloMsgs:              dec.haloMsgs,
			HaloBytes:             dec.haloBytes,
		}
		if rep.stepsPerSec > 0 {
			rr.Speedup = dec.stepsPerSec / rep.stepsPerSec
		}
		res.Results = append(res.Results, rr)
	}
	res.WallSec = time.Since(wall).Seconds()
	res.Timestamp = time.Now().UTC().Format(time.RFC3339)

	b, err := json.MarshalIndent(res, "", "  ")
	if err != nil {
		log.Fatal(err)
	}
	if err := os.WriteFile(*out, append(b, '\n'), 0o644); err != nil {
		log.Fatal(err)
	}
	if err := validate(*out); err != nil {
		log.Fatalf("self-validation of %s failed: %v", *out, err)
	}
	for _, rr := range res.Results {
		fmt.Printf("%s ranks=%d: replicated %.2f steps/s, decomposed %.2f steps/s (%.2fx), halo %d msgs / %d bytes\n",
			res.Name, rr.Ranks, rr.ReplicatedStepsPerSec, rr.DecomposedStepsPerSec, rr.Speedup, rr.HaloMsgs, rr.HaloBytes)
	}
	fmt.Printf("halo exchange: %.1f allocs/op in steady state -> %s\n", res.HaloAllocsPerExchange, *out)
}

// dataflowRun is one dataflow's measurement.
type dataflowRun struct {
	stepsPerSec float64
	sypd        float64
	haloMsgs    int64
	haloBytes   int64
}

// runDataflow times `steps` coupling steps of a fresh model with the
// atmosphere decomposition on or off.
func runDataflow(cfg core.Config, sched core.Schedule, remap core.RemapMode, ranks, steps int, decomp bool, sp pp.Space, start time.Time) dataflowRun {
	var r dataflowRun
	par.Run(ranks, func(c *par.Comm) {
		handle := obs.New(c.Rank(), nil)
		e, err := core.NewWithOptions(cfg, c,
			core.WithInterval(start, start.Add(24*time.Hour)),
			core.WithSpace(sp),
			core.WithObserver(handle),
			core.WithSchedule(sched),
			core.WithRemap(remap),
			core.WithAtmDecomp(decomp))
		if err != nil {
			log.Fatal(err)
		}
		t0 := time.Now()
		sypd, err := e.MeasureSYPD(steps)
		if err != nil {
			log.Fatal(err)
		}
		elapsed := time.Since(t0).Seconds()
		if c.Rank() != 0 {
			return
		}
		r.sypd = sypd
		if elapsed > 0 {
			r.stepsPerSec = float64(steps) / elapsed
		}
		reg := handle.Registry()
		r.haloMsgs = reg.Counter(obs.Labeled("cpl.halo.msgs", "component", "atm")).Value()
		r.haloBytes = reg.Counter(obs.Labeled("cpl.halo.bytes", "component", "atm")).Value()
	})
	return r
}

// measureHaloAllocs returns the steady-state heap allocations per combined
// cell + edge halo exchange on 2 ranks: rank 0 measures a Mallocs delta
// while rank 1 drives the matching exchanges, which are themselves
// allocation-free after warm-up so they do not pollute the count.
func measureHaloAllocs() float64 {
	const iters = 100
	var allocs float64
	par.Run(2, func(c *par.Comm) {
		mesh, err := grid.NewIcosMesh(4)
		if err != nil {
			log.Fatal(err)
		}
		d, err := grid.NewIcosDecomp(mesh, c)
		if err != nil {
			log.Fatal(err)
		}
		cells := make([]float64, 3*mesh.NCells())
		edges := make([]float64, 3*mesh.NEdges())
		step := func() {
			d.ExchangeCells(cells, 3)
			d.ExchangeEdges(edges, 3)
		}
		step() // warm both parity buffers
		step()
		c.Barrier()
		if c.Rank() == 0 {
			allocs = mallocsPer(iters, step)
		} else {
			for i := 0; i < iters; i++ {
				step()
			}
		}
		c.Barrier()
	})
	return allocs
}

// mallocsPer reports the mean heap allocations of f over iters calls,
// measured with a runtime.MemStats Mallocs delta.
func mallocsPer(iters int, f func()) float64 {
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for i := 0; i < iters; i++ {
		f()
	}
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs-before.Mallocs) / float64(iters)
}

// validate re-reads the written record with strict field checking and
// sanity-checks the values — the schema contract scripts/check.sh relies
// on, including the acceptance gate: at the largest rank count the
// decomposed dataflow must be strictly faster than the replicated one.
func validate(path string) error {
	b, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.DisallowUnknownFields()
	var rec result
	if err := dec.Decode(&rec); err != nil {
		return err
	}
	switch {
	case rec.Name == "" || rec.Config == "" || rec.Timestamp == "":
		return fmt.Errorf("missing identification fields")
	case rec.Steps < 1:
		return fmt.Errorf("non-positive steps")
	case len(rec.Results) < 3:
		return fmt.Errorf("want rank counts 1, 2, 4; got %d entries", len(rec.Results))
	case rec.HaloAllocsPerExchange != 0:
		return fmt.Errorf("steady-state halo exchange allocates (%v allocs/op)", rec.HaloAllocsPerExchange)
	}
	last := rec.Results[len(rec.Results)-1]
	for _, rr := range rec.Results {
		if !(rr.ReplicatedStepsPerSec > 0) || !(rr.DecomposedStepsPerSec > 0) {
			return fmt.Errorf("ranks=%d: non-positive steps/sec", rr.Ranks)
		}
		if rr.Ranks > 1 && rr.HaloMsgs == 0 {
			return fmt.Errorf("ranks=%d: decomposed run exchanged no halo messages", rr.Ranks)
		}
	}
	if last.DecomposedStepsPerSec <= last.ReplicatedStepsPerSec {
		return fmt.Errorf("ranks=%d: decomposed %.2f steps/s not faster than replicated %.2f",
			last.Ranks, last.DecomposedStepsPerSec, last.ReplicatedStepsPerSec)
	}
	return nil
}
