package atmos

import (
	"testing"

	"repro/internal/pp"
)

// The sizing benchmark of the dycore's layout and arithmetic work (PRs 21,
// 24 and 25 each rebuilt it as a throw-away file): a level-3, 8-level model —
// the benchmark configuration's atmosphere — spun up in-process with surface
// radiation on its own step, then timed whole and sweep by sweep. Run it as
// `make bench-atmos` (-count 6 -cpu 1) in two trees and compare the minima;
// it is not part of check.

// radCadence gives model step i the coupled model's radiation cadence: every
// column diagnosed on one model step in four, every column held on the rest.
func radCadence(m *Model, mask []bool, i int) {
	rad := i%4 == 0
	m.DemandRadiation(mask, rad, rad)
}

func BenchmarkStepModel(b *testing.B) {
	m, err := New(3, 8, DefaultConfig(), pp.Serial{})
	if err != nil {
		b.Fatal(err)
	}
	mask := make([]bool, m.Mesh.NCells())
	const spinUp = 60 // model steps: two simulated days at the default 120 s × 15
	for i := 0; i < spinUp; i++ {
		radCadence(m, mask, i)
		m.StepModel()
	}
	nc, ne := m.Mesh.NCells(), m.Mesh.NEdges()
	s := m.dy

	b.Run("step", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			radCadence(m, mask, spinUp+i)
			m.StepModel()
		}
	})

	// The four sweeps that read U: continuity's edge pass, the cell
	// diagnostics, vorticity and momentum, as one substep launches them. The
	// flux accumulator they add to is put back afterwards.
	b.Run("usweeps", func(b *testing.B) {
		saved := append([]float64(nil), m.flux.edge...)
		s.eg.bindStep(m.Cfg.DtDycore, m.Cfg.Div4, m.Cfg.KhMomentum)
		s.bindSets()
		s.bKeDiv.u, s.bVort.u, s.bMom.u, s.bMom.newU = m.U, m.U, m.U, s.newU
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			m.sweep(s.comp, ne, s.contEdgeF)
			pp.Kernels.MustLaunch(hAtmKeDiv, m.Sp, s.bKeDiv)
			pp.Kernels.MustLaunch(hAtmVort, m.Sp, s.bVort)
			pp.Kernels.MustLaunch(hAtmMomentum, m.Sp, s.bMom)
		}
		b.StopTimer()
		s.bKeDiv.u, s.bVort.u, s.bMom.u, s.bMom.newU = nil, nil, nil, nil
		copy(m.flux.edge, saved)
	})

	// The tracer step's transport on a window three substeps into its
	// accumulation, the phase the last substep before a tracer step sees.
	b.Run("transport2", func(b *testing.B) {
		for m.steps%m.Cfg.TracerEvery != m.Cfg.TracerEvery-1 {
			m.Step()
		}
		s.bindSets()
		for c := 0; c < nc; c++ {
			s.lnPs[c] = m.Ps[c] - m.flux.dps[c]
		}
		m.sweep(nil, nc, s.thetaF)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			m.sweep(s.owned, nc, s.transportF)
		}
	})

	// The hydrostatic integral with ln(ps), as a substep takes it after a
	// tracer or physics step, and ln(ps) alone, as it takes it otherwise.
	b.Run("thermo", func(b *testing.B) {
		s.bindSets()
		for i := 0; i < b.N; i++ {
			m.sweep(nil, nc, s.thermoF)
		}
	})
	b.Run("lnps", func(b *testing.B) {
		s.bindSets()
		for i := 0; i < b.N; i++ {
			m.sweep(nil, nc, s.lnPsF)
		}
	})
}
