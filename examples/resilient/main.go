// Resilient: run the coupled model under an armed fault plan and let the
// supervising driver absorb the failures. The plan drops an I/O error into
// the second checkpoint write and a NaN into the ocean temperature mid-run;
// RunResilient checkpoints every 8 coupling steps, committing each set on a
// writer goroutine while the model steps on. It learns of the failed write
// at the next checkpoint and of the NaN through the health guardrails, rolls
// back to the last committed set each time, and still finishes — bit-for-bit
// identical to a fault-free run, because one-shot injections never refire on
// the replayed steps.
package main

import (
	"bytes"
	"fmt"
	"log"
	"os"
	"path/filepath"
	"time"

	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/par"
	"repro/internal/pp"
)

func main() {
	log.SetFlags(0)

	cfg, err := core.ConfigForLabel("25v10")
	if err != nil {
		log.Fatal(err)
	}
	start := time.Date(2023, 7, 21, 0, 0, 0, 0, time.UTC)
	mk := func(c *par.Comm) func() (*core.ESM, error) {
		return func() (*core.ESM, error) {
			return core.NewWithOptions(cfg, c,
				core.WithInterval(start, start.Add(24*time.Hour)),
				core.WithSpace(pp.Serial{}))
		}
	}

	work, err := os.MkdirTemp("", "ap3esm-resilient")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(work)

	const days = 30.0 / 180 // 30 coupling steps at 180 couplings/day

	// Fault-free reference run.
	refDir := filepath.Join(work, "ref")
	par.Run(1, func(c *par.Comm) {
		e, err := mk(c)()
		if err != nil {
			log.Fatal(err)
		}
		e.RunDays(days)
		if err := e.WriteRestart(refDir, 1); err != nil {
			log.Fatal(err)
		}
	})

	// The same run under an armed fault plan.
	plan, err := fault.Parse("io-error@pario.write:2;nan@esm.step:29", 42)
	if err != nil {
		log.Fatal(err)
	}
	fault.Arm(plan)
	fmt.Printf("armed fault plan: %s\n", plan)

	gotDir := filepath.Join(work, "got")
	par.Run(1, func(c *par.Comm) {
		e, rep, err := core.RunResilient(mk(c), core.ResilientConfig{
			Days: days, CheckpointEvery: 8, MaxRetries: 5,
			Dir: filepath.Join(work, "ck"),
		})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("completed %d coupling steps with %d checkpoints\n", rep.Steps, rep.Checkpoints)
		for _, ev := range rep.Recoveries {
			fmt.Printf("  recovery: step %d (%s), attempt %d, resumed from step %d\n",
				ev.Step, ev.Reason, ev.Attempt, ev.Resumed)
		}
		fault.Disarm() // the comparison write below must be clean
		if err := e.WriteRestart(gotDir, 1); err != nil {
			log.Fatal(err)
		}
	})
	fmt.Printf("fault counts: %v\n", plan.Counts())

	// The recovery protocol's acceptance property: byte-identical state.
	ref, err := os.ReadFile(filepath.Join(refDir, "part-0.bin"))
	if err != nil {
		log.Fatal(err)
	}
	got, err := os.ReadFile(filepath.Join(gotDir, "part-0.bin"))
	if err != nil {
		log.Fatal(err)
	}
	if !bytes.Equal(ref, got) {
		log.Fatal("recovered run diverged from the fault-free run")
	}
	fmt.Println("recovered restart set is bit-for-bit identical to the fault-free run")
}
