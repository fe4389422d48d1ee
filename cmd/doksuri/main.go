// Command doksuri runs the Super Typhoon Doksuri forecast experiment
// (§7.1, Figs 1, 6, 7): it seeds the Holland vortex at the best track's
// genesis position in the coupled model, integrates, tracks the storm, and
// prints the simulated track against the bundled CMA-style best track plus
// the Fig 6 structure diagnostics.
//
//	doksuri -config 10v5 -hours 24 -track
package main

import (
	"flag"
	"fmt"
	"log"
	"math"
	"time"

	"repro/internal/core"
	"repro/internal/par"
	"repro/internal/typhoon"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("doksuri: ")
	label := flag.String("config", "10v5", "coupled configuration label")
	hours := flag.Int("hours", 24, "forecast length in simulated hours")
	track := flag.Bool("track", true, "print the track comparison (Fig 7)")
	out := flag.String("out", "", "write a Fig 1-style surface snapshot (pario binary) to this path at the end")
	flag.Parse()

	length, err := checkHours(*hours)
	if err != nil {
		log.Fatal(err)
	}
	cfg, err := core.ConfigForLabel(*label)
	if err != nil {
		log.Fatal(err)
	}
	best := typhoon.BestTrackDoksuri()
	start := best[0].Time
	stop := start.Add(length)

	par.Run(1, func(c *par.Comm) {
		e, err := core.NewWithOptions(cfg, c, core.WithInterval(start, stop))
		if err != nil {
			log.Fatal(err)
		}
		seed := typhoon.DoksuriSeed()
		if err := typhoon.Seed(e.Atm, seed); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("seeded Doksuri at (%.1fE, %.1fN), deficit %.0f Pa, RMW %.0f km; config %s\n",
			seed.LonDeg, seed.LatDeg, seed.DeltaPs, seed.RadiusKm, cfg.Label)

		prev := typhoon.Fix{Time: start, LonDeg: seed.LonDeg, LatDeg: seed.LatDeg}
		var fixes []typhoon.Fix
		perHour := float64(cfg.AtmCouplingsPerDay) / 24
		for h := 6; h <= *hours; h += 6 {
			target := int(math.Round(float64(h) * perHour))
			for e.CouplingSteps() < target {
				if !e.Step() {
					log.Fatal("clock exhausted")
				}
			}
			fix, err := typhoon.FindCenterNear(e.Atm, start.Add(time.Duration(h)*time.Hour), prev, 1500, 800)
			if err != nil {
				log.Fatal(err)
			}
			fixes = append(fixes, fix)
			prev = fix
			fmt.Printf("  +%3dh  centre (%6.1fE, %5.1fN)  min ps %7.0f Pa  max wind %5.1f m/s\n",
				h, fix.LonDeg, fix.LatDeg, fix.PressPa, fix.WindMS)
		}

		// Fig 6 structure diagnostics.
		last := fixes[len(fixes)-1]
		rmw := typhoon.RadiusOfMaxWind(e.Atm, last, 900)
		u, v := e.Atm.Wind10m()
		speed := make([]float64, len(u))
		for i := range u {
			speed[i] = math.Hypot(u[i], v[i])
		}
		fsv := typhoon.FineScaleVariance(e.Atm.Mesh, speed)
		ro := e.Ocn.SurfaceRossby()
		var roMax float64
		for _, r := range ro {
			if a := math.Abs(r); a > roMax {
				roMax = a
			}
		}
		fmt.Printf("structure: radius of max wind %.0f km, fine-scale wind variance %.3g, peak |Rossby| %.3g\n",
			rmw, fsv, roMax)

		if *out != "" {
			if err := e.WriteSnapshot(*out); err != nil {
				log.Fatal(err)
			}
			fmt.Printf("wrote surface snapshot (sst, kinetic energy, Rossby number, ice, ps, wind, precip, cloud) to %s\n", *out)
		}

		if *track {
			fmt.Println("track vs CMA-style best track:")
			for _, p := range best {
				fmt.Printf("  best %s  (%6.1fE, %5.1fN)  %4.0f m/s  %6.0f Pa\n",
					p.Time.Format("2006-01-02 15Z"), p.LonDeg, p.LatDeg, p.WindMS, p.PressPa)
			}
			errKm, err := typhoon.TrackError(fixes, best)
			if err != nil {
				log.Fatal(err)
			}
			fmt.Printf("mean track error over the forecast: %.0f km\n", errKm)
		}
	})
}

// maxHours is the longest forecast whose run, one hour past the last fix,
// a time.Duration holds.
const maxHours = math.MaxInt64/int64(time.Hour) - 1

// checkHours rejects a forecast length no run can honour, naming the flag,
// and returns the run's length. The storm is fixed every 6 simulated hours,
// so a shorter forecast has no fix to diagnose or score; a longer one than
// maxHours would wrap the run's time.Duration and silently run a different
// length.
func checkHours(hours int) (time.Duration, error) {
	switch {
	case hours < 6:
		return 0, fmt.Errorf("-hours must be at least 6 (one track fix), got %d", hours)
	case int64(hours) > maxHours:
		return 0, fmt.Errorf("-hours must be at most %d, got %d", maxHours, hours)
	}
	return time.Duration(hours+1) * time.Hour, nil
}
