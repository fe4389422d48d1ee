// Command ap3esm runs the coupled model at one of the Table 1
// configurations (scale-mapped to runnable grids) and reports diagnostics
// and the measured SYPD.
//
//	ap3esm -config 25v10 -days 1 -ranks 2 -schedule conc
//	ap3esm -config 25v10 -days 1 -mixed   # §5.2.3 group-scaled FP32 state
package main

import (
	"flag"
	"fmt"
	"log"
	"math"
	"os"
	"runtime"
	"runtime/pprof"
	"time"

	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/obs"
	"repro/internal/par"
	"repro/internal/precision"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("ap3esm: ")
	label := flag.String("config", "25v10", "coupled configuration label (1v1, 3v2, 6v3, 10v5, 25v10)")
	days := flag.Float64("days", 1, "simulated days to run")
	ranks := flag.Int("ranks", 1, "process count (both the atmosphere/land and ocean/ice domains decompose over it)")
	mixed := flag.Bool("mixed", false, "run the dynamical cores in FP64/FP32 group-scaled mixed precision")
	obsSpec := flag.String("obs", "off", "observability sink: off, mem, jsonl:PATH, prom:ADDR")
	faults := flag.String("faults", "", "fault plan, e.g. 'io-error@pario.write:2;nan@esm.step:21' (see internal/fault)")
	faultSeed := flag.Int64("fault-seed", 1, "seed for the fault plan's RNG (bit/tear placement)")
	ckEvery := flag.Int("checkpoint-every", 0, "checkpoint every N coupling steps and auto-recover from faults (0 = off)")
	ckDir := flag.String("restart-dir", "restart", "restart-set directory for -checkpoint-every")
	maxRetries := flag.Int("max-retries", 3, "consecutive failed recoveries before giving up")
	schedName := flag.String("schedule", "seq", "component schedule: seq (sequential groups) or conc (overlapped ocean/atmosphere)")
	audit := flag.Bool("audit", false, "record the per-coupling-interval conservation budget and print the ledger report")
	auditGate := flag.Float64("audit-gate", 0, "fail if the max relative heat/freshwater residual exceeds this (0 = report only; implies -audit)")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile of the run loop (all ranks, model assembly and reports excluded) to this file")
	memProfile := flag.String("memprofile", "", "record every allocation and write the in-use heap profile at the end of the run, models still live, to this file")
	flag.Parse()

	length, err := checkFlags(*days, *ranks, *ckEvery, *maxRetries, *auditGate, *ckDir)
	if err != nil {
		log.Fatal(err)
	}
	cfg, err := core.ConfigForLabel(*label)
	if err != nil {
		log.Fatal(err)
	}
	sched, err := core.ParseSchedule(*schedName)
	if err != nil {
		log.Fatal(err)
	}
	if *auditGate > 0 {
		*audit = true
	}
	if *mixed {
		cfg.Policy = precision.Mixed
	}
	if *memProfile != "" {
		// Before the first model allocation, so every live array is sampled.
		runtime.MemProfileRate = 1
	}
	sink, err := obs.OpenSink(*obsSpec)
	if err != nil {
		log.Fatal(err)
	}
	if ps, ok := sink.(*obs.PromSink); ok && ps.Addr() != "" {
		fmt.Printf("serving metrics at http://%s/metrics\n", ps.Addr())
	}

	plan, err := fault.Parse(*faults, *faultSeed)
	if err != nil {
		log.Fatal(err)
	}
	if plan != nil {
		fault.Arm(plan)
		defer fault.Disarm()
		fmt.Printf("armed fault plan: %s\n", plan)
	}

	start := time.Date(2023, 7, 21, 0, 0, 0, 0, time.UTC)
	stop := start.Add(length)

	fmt.Printf("AP3ESM %s (stands for %d km atm / %d km ocn): atm icos level %d, ocean %dx%dx%d, %d ranks, %v, %s schedule\n",
		cfg.Label, cfg.PaperAtmKm, cfg.PaperOcnKm, cfg.AtmLevel,
		cfg.OcnNX, cfg.OcnNY, cfg.OcnNLev, *ranks, cfg.Policy, sched)

	par.Run(*ranks, func(c *par.Comm) {
		var observer obs.Observer = obs.Nop{}
		var handle *obs.Obs
		if sink != nil {
			handle = obs.New(c.Rank(), sink)
			observer = handle
		}
		if plan != nil && c.Rank() == 0 && handle != nil {
			plan.SetObserver(handle) // fault.injected.* counters on rank 0's stream
		}
		mk := func() (*core.ESM, error) {
			return core.NewWithOptions(cfg, c,
				core.WithInterval(start, stop),
				core.WithObserver(observer),
				core.WithSchedule(sched),
				core.WithAudit(*audit))
		}
		e, err := mk()
		if err != nil {
			log.Fatal(err)
		}
		stopProfile := startCPUProfile(c, *cpuProfile)
		wall := time.Now()
		daysRun := 0.0
		if *ckEvery > 0 {
			// Resilient path: the supervisor checkpoints every N coupling
			// steps and rolls back on health or checkpoint failures.
			var rep *core.ResilientReport
			e, rep, err = core.RunResilient(mk, core.ResilientConfig{
				Days: *days, CheckpointEvery: *ckEvery, MaxRetries: *maxRetries,
				Dir: *ckDir, NGroups: 1,
			})
			// RunResilient returns no report when it fails before the run.
			if rep != nil && c.Rank() == 0 {
				for _, ev := range rep.Recoveries {
					fmt.Printf("  recovery: step %d (%s), attempt %d, resumed from step %d\n",
						ev.Step, ev.Reason, ev.Attempt, ev.Resumed)
				}
			}
			if err != nil {
				log.Fatal(err)
			}
			daysRun = e.SimulatedSeconds() / 86400
		} else {
			for e.Step() {
				daysRun = e.SimulatedSeconds() / 86400
				if e.CouplingSteps()%45 == 0 {
					// Every diagnostic reduces across ranks — the atmosphere
					// scans are owned-range only under the decomposition — so
					// every rank computes them; rank 0 prints.
					maxWind := c.Allreduce(e.Atm.MaxWindLocal(), par.OpMax)
					minPs := c.Allreduce(e.Atm.MinPsLocal(), par.OpMin)
					ke := e.Ocn.SurfaceKineticEnergy()
					iceArea := e.Ice.IceArea()
					if c.Rank() == 0 {
						fmt.Printf("  t=%5.2f d  atm max wind %5.1f m/s  min ps %7.0f Pa  ocean KE %.2e  ice area %.3g m2\n",
							daysRun, maxWind, minPs, ke, iceArea)
					}
				}
			}
		}
		stopProfile()
		writeHeapProfile(c, *memProfile, e)
		if c.Rank() == 0 {
			elapsed := time.Since(wall).Seconds()
			sypd := (e.SimulatedSeconds() / elapsed) * 86400 / (365 * 86400)
			fmt.Printf("completed %.2f simulated days in %.1f s wall -> %.2f SYPD (miniature configuration)\n",
				daysRun, elapsed, sypd)
		}
		if d := e.Atm.Decomp(); d != nil {
			// Physics and cell diagnostics run on ext = owned + ring-1 halo,
			// so ext/owned is the redundant-column factor of the partition.
			worst := c.Allreduce(float64(d.Patch.NCells())/float64(d.NOwned()), par.OpMax)
			if c.Rank() == 0 {
				fmt.Printf("atmosphere partition: max ext/owned %.2f over %d ranks\n", worst, c.Size())
			}
		}
		if l := e.Budget(); l != nil {
			// The ledger terms are identical on every rank (the audit
			// allreduces every owned-range partial): rank 0 reports, every
			// rank agrees on the gate verdict.
			s := l.Summary()
			if c.Rank() == 0 {
				fmt.Printf("conservation budget:\n%s", l.Report())
			}
			if g := *auditGate; g > 0 && (s.MaxHeatResid > g || s.MaxFWResid > g) {
				log.Fatalf("budget gate: max residual heat %.3e / fw %.3e exceeds %.1e",
					s.MaxHeatResid, s.MaxFWResid, g)
			}
		}
		if sink != nil {
			// Surface radiation runs on its own step, the ocean-coupling
			// interval: columns as the registry counted them (redone steps
			// included), steps as the clock dealt them.
			cols := c.Allreduce(float64(handle.Registry().Counter("atm.rad.columns").Value()), par.OpSum)
			if c.Rank() == 0 {
				steps := e.CouplingSteps()
				radSteps := steps * cfg.OcnCouplingsPerDay / cfg.AtmCouplingsPerDay
				fmt.Printf("surface radiation: %.0f columns diagnosed, %d radiation steps, %d steps held\n",
					cols, radSteps, steps-radSteps)
			}
			rows := e.TimingReport() // collective: every rank participates
			if c.Rank() == 0 {
				fmt.Print(core.FormatTiming(rows))
			}
			handle.FlushMetrics()
		}
	})

	if sink != nil {
		if ps, ok := sink.(*obs.PromSink); ok {
			ps.Render(os.Stdout) // final exposition for batch runs
		}
		if err := sink.Close(); err != nil {
			log.Fatal(err)
		}
	}
}

// maxDays is the longest run a time.Duration holds, in whole days.
const maxDays = math.MaxInt64 / int64(24*time.Hour)

// checkFlags rejects the flag values no run can honour, naming the flag, and
// returns the run's length: -days must be a positive span a time.Duration
// holds, -ranks at least 1, and -checkpoint-every, -max-retries and
// -audit-gate not negative, 0 keeping its documented meaning; checkpoints
// need a -restart-dir.
func checkFlags(days float64, ranks, ckEvery, maxRetries int, auditGate float64, ckDir string) (time.Duration, error) {
	ns := days * 24 * float64(time.Hour)
	switch {
	case !(ns >= 1 && days <= float64(maxDays)): // NaN fails both
		return 0, fmt.Errorf("-days must be between one nanosecond and %d days, got %v", maxDays, days)
	case ranks < 1:
		return 0, fmt.Errorf("-ranks must be at least 1, got %d", ranks)
	case ckEvery < 0:
		return 0, fmt.Errorf("-checkpoint-every must be 0 (off) or positive, got %d", ckEvery)
	case ckEvery > 0 && ckDir == "":
		return 0, fmt.Errorf("-restart-dir must name a directory when -checkpoint-every is on")
	case maxRetries < 0:
		return 0, fmt.Errorf("-max-retries must be 0 or positive, got %d", maxRetries)
	case !(auditGate >= 0): // NaN too
		return 0, fmt.Errorf("-audit-gate must be 0 (report only) or positive, got %v", auditGate)
	}
	return time.Duration(ns), nil
}

// startCPUProfile begins one CPU profile for every rank goroutine once all
// ranks have assembled their model, and returns the call that ends it once
// all have left the run loop. Collective when path is set; with no path it
// does nothing.
func startCPUProfile(c *par.Comm, path string) (stop func()) {
	if path == "" {
		return func() {}
	}
	var f *os.File
	c.Barrier()
	if c.Rank() == 0 {
		var err error
		if f, err = os.Create(path); err != nil {
			log.Fatal(err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			log.Fatal(err)
		}
	}
	return func() {
		c.Barrier()
		if c.Rank() == 0 {
			pprof.StopCPUProfile()
			if err := f.Close(); err != nil {
				log.Fatal(err)
			}
		}
	}
}

// writeHeapProfile writes the in-use heap profile of the whole process —
// every rank's model — once all ranks have left the run loop, while each
// still holds its model e. Collective when path is set; with no path it
// does nothing.
func writeHeapProfile(c *par.Comm, path string, e *core.ESM) {
	if path == "" {
		return
	}
	c.Barrier()
	if c.Rank() == 0 {
		runtime.GC() // the profile's in-use figures are as of the last collection
		f, err := os.Create(path)
		if err != nil {
			log.Fatal(err)
		}
		if err := pprof.Lookup("heap").WriteTo(f, 0); err != nil {
			log.Fatal(err)
		}
		if err := f.Close(); err != nil {
			log.Fatal(err)
		}
	}
	c.Barrier()
	runtime.KeepAlive(e)
}
