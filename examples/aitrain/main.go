// Aitrain: the §5.2.1 workflow end to end — generate a training corpus
// from the conventional physics suite, train the AI tendency CNN and the
// AI radiation MLP, report losses and the parameter count, and swap the
// trained suite into the atmosphere. The per-column cost against the
// conventional suite is `go test -run '^$' -bench AIPhysicsSuite
// ./internal/aiphys`.
package main

import (
	"fmt"
	"log"

	"repro/internal/aiphys"
	"repro/internal/atmos"
	"repro/internal/pp"
)

func main() {
	log.SetFlags(0)

	m, err := atmos.New(3, 8, atmos.DefaultConfig(), pp.Serial{})
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println("training the AI physics suite on conventional-suite supervision…")
	suite, res, err := aiphys.TrainedSuite(m, 10, 600, 20, 7)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("  CNN (tendencies): initial loss %.1f -> test loss %.3f (zero-predictor baseline ~1.0)\n",
		res.InitialCNN, res.TestLossCNN)
	fmt.Printf("  MLP (radiation):  initial loss %.1f -> test loss %.3f\n",
		res.InitialMLP, res.TestLossMLP)
	fmt.Printf("  CNN parameters: %d (paper architecture at width 110 has ~5e5)\n",
		suite.CNN.Params.Count())

	// Plug the trained suite into the model and integrate.
	m.Physics = suite
	for s := 0; s < 2*m.Cfg.PhysicsEvery; s++ {
		m.Step()
	}
	fmt.Printf("model under AI physics after 2 physics steps: max wind %.1f m/s (stable)\n", m.MaxWind())
}
