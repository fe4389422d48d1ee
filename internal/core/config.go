// Package core assembles AP3ESM: the GRIST-substitute atmosphere, the
// LICOM-substitute ocean, the CICE4-substitute sea ice, and the bucket land
// model, coupled by ESM.Step, which calls each component's import, step and
// export directly on the CPL7-substitute coupler's clocks and alarms. The
// five coupled configurations of Table 1 (1v1 … 25v10) are scale-mapped onto
// runnable grids; the paper-scale element counts are regenerated separately
// by the perfmodel package.
package core

import (
	"fmt"

	"repro/internal/atmos"
	"repro/internal/ocean"
	"repro/internal/precision"
	"repro/internal/seaice"
)

// Config is one coupled configuration.
type Config struct {
	Label string // "1v1", "3v2", "6v3", "10v5", "25v10"

	// Paper resolutions this configuration stands for.
	PaperAtmKm, PaperOcnKm int

	// Runnable grid sizes.
	AtmLevel, AtmNLev     int
	OcnNX, OcnNY, OcnNLev int

	AtmCfg atmos.Config
	OcnCfg ocean.Config
	IceCfg seaice.Config

	// Coupling frequencies per simulated day (paper: 180/36/180).
	AtmCouplingsPerDay int
	OcnCouplingsPerDay int
	IceCouplingsPerDay int

	Policy precision.Policy
}

// Configurations lists the five coupled pairs of Table 1 with their
// scale-mapped runnable sizes (DESIGN.md §3). The coupling cadence keeps
// the paper's 180/36/180 per-day pattern.
func Configurations() []Config {
	mk := func(label string, atmKm, ocnKm, lvl, nx, ny int) Config {
		c := Config{
			Label:      label,
			PaperAtmKm: atmKm, PaperOcnKm: ocnKm,
			AtmLevel: lvl, AtmNLev: 8,
			OcnNX: nx, OcnNY: ny, OcnNLev: 10,
			AtmCfg:             atmos.DefaultConfig(),
			OcnCfg:             ocean.DefaultConfig(),
			IceCfg:             seaice.DefaultConfig(),
			AtmCouplingsPerDay: 180,
			OcnCouplingsPerDay: 36,
			IceCouplingsPerDay: 180,
		}
		// The coupling interval is 8 simulated minutes (180/day): one
		// atmosphere model step per coupling.
		c.AtmCfg.DtDycore = 480.0 / float64(c.AtmCfg.PhysicsEvery) // 8 min / 15 substeps = 32 s
		c.OcnCfg.DtBaroclinic = 1200                               // 36/day → 2400 s interval = 2 steps
		c.IceCfg.Dt = 480
		return c
	}
	return []Config{
		mk("1v1", 1, 1, 5, 192, 96),
		mk("3v2", 3, 2, 4, 144, 72),
		mk("6v3", 6, 3, 4, 96, 48),
		mk("10v5", 10, 5, 3, 72, 36),
		mk("25v10", 25, 10, 3, 48, 24),
	}
}

// ConfigForLabel returns the configuration with the given Table 1 label.
func ConfigForLabel(label string) (Config, error) {
	for _, c := range Configurations() {
		if c.Label == label {
			return c, nil
		}
	}
	return Config{}, fmt.Errorf("core: unknown configuration %q (have 1v1, 3v2, 6v3, 10v5, 25v10)", label)
}
