// Concurrent: run the same two-rank coupled configuration under the
// sequential and the concurrent component schedule and show what the
// overlap buys — the paper's concurrent-components lever (§5.1) at
// miniature scale. The concurrent schedule overlaps the ocean's
// baroclinic substeps with the atmosphere + land group, bit-for-bit
// reproducing the sequential answer.
package main

import (
	"fmt"
	"log"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/par"
	"repro/internal/pp"
)

func main() {
	log.SetFlags(0)
	cfg, err := core.ConfigForLabel("25v10")
	if err != nil {
		log.Fatal(err)
	}
	const ranks, steps = 2, 30
	start := time.Date(2023, 7, 21, 0, 0, 0, 0, time.UTC)

	type outcome struct {
		sypd    float64
		wall    float64
		overlap float64
		waitAtm time.Duration
		sst     float64 // mean SST checksum for the bitwise claim
	}
	run := func(sched core.Schedule) outcome {
		var out outcome
		par.Run(ranks, func(c *par.Comm) {
			handle := obs.New(c.Rank(), nil)
			e, err := core.NewWithOptions(cfg, c,
				core.WithInterval(start, start.Add(24*time.Hour)),
				core.WithSpace(pp.NewHost(0)),
				core.WithObserver(handle),
				core.WithSchedule(sched))
			if err != nil {
				log.Fatal(err)
			}
			t0 := time.Now()
			sypd, err := e.MeasureSYPD(steps)
			if err != nil {
				log.Fatal(err)
			}
			if c.Rank() != 0 {
				return
			}
			out.sypd = sypd
			out.wall = time.Since(t0).Seconds()
			out.overlap = e.OverlapFraction()
			out.waitAtm, _ = handle.Section("cpl.wait.atm")
			sum := 0.0
			for _, v := range e.Atm.SST {
				sum += v
			}
			out.sst = sum / float64(len(e.Atm.SST))
		})
		return out
	}

	seq := run(core.ScheduleSeq)
	conc := run(core.ScheduleConc)

	fmt.Printf("%s, %d ranks, %d coupling steps:\n", cfg.Label, ranks, steps)
	fmt.Printf("  seq : %6.2f SYPD  (%.2f s wall)\n", seq.sypd, seq.wall)
	fmt.Printf("  conc: %6.2f SYPD  (%.2f s wall)  overlap %.2f, ocean idle %.0f ms\n",
		conc.sypd, conc.wall, conc.overlap, conc.waitAtm.Seconds()*1e3)
	fmt.Printf("  speedup %.2fx\n", conc.sypd/seq.sypd)
	if seq.sst == conc.sst {
		fmt.Printf("  final mean SST identical under both schedules: %.6f K\n", seq.sst)
	} else {
		fmt.Printf("  WARNING: schedules diverged: seq %.12f K vs conc %.12f K\n", seq.sst, conc.sst)
	}
}
