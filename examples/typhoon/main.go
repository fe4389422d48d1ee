// Typhoon: the Fig 6 resolution-contrast experiment. The same Doksuri
// vortex is seeded into a coarse ("25v10-class") and a finer
// ("3v2-class") coupled configuration; after a short integration the
// fine run shows a more compact eye, a stronger pressure deficit, and
// richer fine-scale structure in the wind field and the ocean's surface
// Rossby-number response.
package main

import (
	"fmt"
	"log"
	"math"
	"time"

	"repro/internal/core"
	"repro/internal/par"
	"repro/internal/pp"
	"repro/internal/typhoon"
)

func runCase(label string, hours int) (fix typhoon.Fix, rmw, fsv, roMax float64) {
	cfg, err := core.ConfigForLabel(label)
	if err != nil {
		log.Fatal(err)
	}
	start := typhoon.BestTrackDoksuri()[0].Time
	par.Run(1, func(c *par.Comm) {
		esm, err := core.NewWithOptions(cfg, c, core.WithInterval(start, start.Add(48*time.Hour)), core.WithSpace(pp.NewHost(0)))
		if err != nil {
			log.Fatal(err)
		}
		seed := typhoon.DoksuriSeed()
		if err := typhoon.Seed(esm.Atm, seed); err != nil {
			log.Fatal(err)
		}
		steps := hours * cfg.AtmCouplingsPerDay / 24
		for s := 0; s < steps; s++ {
			esm.Step()
		}
		prev := typhoon.Fix{Time: start, LonDeg: seed.LonDeg, LatDeg: seed.LatDeg}
		fix, err = typhoon.FindCenterNear(esm.Atm, start.Add(time.Duration(hours)*time.Hour), prev, 1500, 800)
		if err != nil {
			log.Fatal(err)
		}
		rmw = typhoon.RadiusOfMaxWind(esm.Atm, fix, 900)
		u, v := esm.Atm.Wind10m()
		speed := make([]float64, len(u))
		for i := range u {
			speed[i] = math.Hypot(u[i], v[i])
		}
		fsv = typhoon.FineScaleVariance(esm.Atm.Mesh, speed)
		for _, r := range esm.Ocn.SurfaceRossby() {
			if a := math.Abs(r); a > roMax {
				roMax = a
			}
		}
	})
	return
}

func main() {
	log.SetFlags(0)
	const hours = 6
	fmt.Printf("Doksuri vortex after %d simulated hours, coarse vs fine (Fig 6 contrast):\n", hours)
	for _, label := range []string{"25v10", "3v2"} {
		fix, rmw, fsv, roMax := runCase(label, hours)
		rmwStr := fmt.Sprintf("%4.0f km", rmw)
		if rmw < 1 {
			rmwStr = "  <1 cell" // eye unresolved on this mesh
		}
		fmt.Printf("  %-6s centre (%6.1fE, %5.1fN)  min ps %7.0f Pa  max wind %5.1f m/s  RMW %s  fine-scale %.3g  peak|Ro| %.3g\n",
			label, fix.LonDeg, fix.LatDeg, fix.PressPa, fix.WindMS, rmwStr, fsv, roMax)
	}
	fmt.Println("expected shape: the finer configuration holds a deeper centre, a more compact eye,")
	fmt.Println("and more fine-scale variance — the paper's Fig 6a/6c vs 6b/6d contrast.")
}
