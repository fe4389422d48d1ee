// Command serve answers forecast-state queries over a snapshot store:
// point and region time series with group-granular decode, nearest-analog
// search over the quantized archive, and derived diagnostics (typhoon
// minimum pressure, maximum wind, conservation residuals).
//
//	serve -store out/store -addr 127.0.0.1:8080              (finished archive)
//	serve -live -config 25v10 -days 0.2 -store out/store     (ingest while serving)
//
// In live mode the coupled model runs under the resilient supervisor and
// hands every checkpoint to the store's persistence goroutine;
// queries see each snapshot as soon as its manifest commit lands.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"path/filepath"
	"syscall"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/par"
	"repro/internal/pp"
	"repro/internal/statestore"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("serve: ")
	store := flag.String("store", "", "snapshot store directory (required)")
	addr := flag.String("addr", "127.0.0.1:8080", "query API listen address")
	obsSpec := flag.String("obs", "off", "observability sink: off, mem, jsonl:PATH, prom:ADDR")
	live := flag.Bool("live", false, "run the coupled model and ingest its checkpoints while serving")
	label := flag.String("config", "25v10", "coupled configuration label for -live")
	days := flag.Float64("days", 0.2, "simulated days to run for -live")
	ranks := flag.Int("ranks", 1, "process count for -live")
	ckEvery := flag.Int("checkpoint-every", 10, "coupling steps between checkpoints (and snapshots) for -live")
	ckDir := flag.String("restart-dir", "", "restart-set directory for -live (default STORE/restart)")
	depth := flag.Int("depth", 4, "ingest queue depth for -live (bounds snapshot staleness)")
	audit := flag.Bool("audit", false, "record conservation budgets and store the residual fields for -live")
	flag.Parse()

	if *store == "" {
		log.Fatal("need -store DIR")
	}
	if *live && *ranks < 1 {
		log.Fatalf("-ranks must be at least 1, got %d", *ranks)
	}
	sink, err := obs.OpenSink(*obsSpec)
	if err != nil {
		log.Fatal(err)
	}
	var observer statestore.Observer
	var handle *obs.Obs
	if sink != nil {
		handle = obs.New(0, sink)
		observer = handle
		if ps, ok := sink.(*obs.PromSink); ok && ps.Addr() != "" {
			fmt.Printf("serving metrics at http://%s/metrics\n", ps.Addr())
		}
	}

	runDone := make(chan error, 1)
	if *live {
		if err := runLive(*store, *label, *days, *ranks, *ckEvery, *ckDir, *depth, *audit, handle, runDone); err != nil {
			log.Fatal(err)
		}
	} else {
		close(runDone)
	}

	st, err := openStore(*store, observer, *live)
	if err != nil {
		log.Fatal(err)
	}
	srv, err := statestore.NewServer(st, *addr, observer)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("serving %d snapshots at http://%s/v1/meta\n", st.Snapshots(), srv.Addr())

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	select {
	case err := <-runDone:
		if err != nil {
			log.Printf("model run: %v", err)
		} else if *live {
			fmt.Println("model run complete; still serving (interrupt to exit)")
		}
		<-sig
	case <-sig:
	}
	if err := srv.Close(); err != nil {
		log.Fatal(err)
	}
	st.Close()
	if sink != nil {
		if handle != nil {
			handle.FlushMetrics()
		}
		if err := sink.Close(); err != nil {
			log.Fatal(err)
		}
	}
}

// runLive starts the coupled run on a background goroutine, ingesting every
// checkpoint, and returns once the store's first snapshot is
// committed (so the caller can open it).
func runLive(store, label string, days float64, ranks, ckEvery int, ckDir string, depth int, audit bool, handle *obs.Obs, done chan<- error) error {
	cfg, err := core.ConfigForLabel(label)
	if err != nil {
		return err
	}
	var observer statestore.Observer
	if handle != nil {
		observer = handle
	}
	w, err := statestore.Create(store, 0, observer)
	if err != nil {
		return err
	}
	in := statestore.NewIngester(w, depth, observer)
	if ckDir == "" {
		ckDir = filepath.Join(store, "restart")
	}
	start := time.Date(2023, 7, 21, 0, 0, 0, 0, time.UTC)
	stop := start.Add(time.Duration(days * 24 * float64(time.Hour)))
	go func() {
		var runErr error
		par.Run(ranks, func(c *par.Comm) {
			var o obs.Observer = obs.Nop{}
			if handle != nil && c.Rank() == 0 {
				o = handle
			}
			mk := func() (*core.ESM, error) {
				return core.NewWithOptions(cfg, c,
					core.WithInterval(start, stop),
					core.WithSpace(pp.Serial{}),
					core.WithObserver(o),
					core.WithAudit(audit))
			}
			_, rep, err := core.RunResilient(mk, core.ResilientConfig{
				Days: days, CheckpointEvery: ckEvery, MaxRetries: 3,
				Dir: ckDir, OnCheckpoint: core.ServeCaptureHook(in),
			})
			if err != nil && c.Rank() == 0 {
				runErr = err
			}
			if c.Rank() == 0 && rep != nil {
				fmt.Printf("run complete: %d steps, %d checkpoints, %d snapshots dropped\n",
					rep.Steps, rep.Checkpoints, in.Dropped())
			}
		})
		if err := in.Close(); err != nil && runErr == nil {
			runErr = err
		}
		if err := w.Close(); err != nil && runErr == nil {
			runErr = err
		}
		done <- runErr
	}()
	return nil
}

// openStore opens the store directory; in live mode it waits for the first
// manifest commit to appear.
func openStore(dir string, o statestore.Observer, wait bool) (*statestore.Store, error) {
	deadline := time.Now().Add(5 * time.Minute)
	for {
		st, err := statestore.Open(dir, o)
		if err == nil || !wait || time.Now().After(deadline) {
			return st, err
		}
		time.Sleep(100 * time.Millisecond)
	}
}
