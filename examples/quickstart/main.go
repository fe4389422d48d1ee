// Quickstart: build the coupled AP3ESM at the 25v10-mapped configuration,
// run six simulated hours, and print the state of every component — the
// minimal end-to-end use of the public API.
package main

import (
	"fmt"
	"log"
	"time"

	"repro/internal/core"
	"repro/internal/par"
)

func main() {
	log.SetFlags(0)

	// 1. Pick a coupled configuration from the Table 1 catalog.
	cfg, err := core.ConfigForLabel("25v10")
	if err != nil {
		log.Fatal(err)
	}

	// 2. Launch the SPMD world (2 ranks share the ocean/ice domain) and
	//    assemble atmosphere + ocean + sea ice + land under the coupler.
	start := time.Date(2023, 7, 21, 0, 0, 0, 0, time.UTC)
	par.Run(2, func(c *par.Comm) {
		esm, err := core.NewWithOptions(cfg, c,
			core.WithInterval(start, start.Add(24*time.Hour)))
		if err != nil {
			log.Fatal(err)
		}

		// 3. Integrate six simulated hours (45 coupling steps at 180/day).
		esm.RunDays(0.25)

		// 4. Inspect each component through its public diagnostics. The
		//    ocean and ice diagnostics are collective (they reduce across
		//    ranks), so every rank calls them; rank 0 prints.
		minPs, _ := esm.Atm.MinPs()
		ke := esm.Ocn.SurfaceKineticEnergy()
		ssh := esm.Ocn.MeanSSH()
		maxCur := esm.Ocn.MaxSurfaceSpeed()
		iceA := esm.Ice.IceArea()
		iceV := esm.Ice.IceVolume()
		if c.Rank() == 0 {
			fmt.Printf("after %.2f simulated days:\n", esm.SimulatedSeconds()/86400)
			fmt.Printf("  atmosphere: max wind %.1f m/s, min surface pressure %.0f Pa, mean precip %.2e kg/m2/s\n",
				esm.Atm.MaxWind(), minPs, esm.Atm.GlobalPrecipRate())
			fmt.Printf("  ocean:      surface KE %.3e m2/s2, mean SSH %.2e m, max current %.2f m/s\n",
				ke, ssh, maxCur)
			fmt.Printf("  sea ice:    area %.3g m2, volume %.3g m3\n", iceA, iceV)
			fmt.Printf("  land:       mean soil T %.1f K, total bucket water %.1f m\n",
				esm.Lnd.MeanSoilTemp(), esm.Lnd.TotalWater())
		}
	})
}
