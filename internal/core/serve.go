package core

import "repro/internal/statestore"

// Forecast-state capture for the serving layer: the coupled model hands
// per-checkpoint surface state to a statestore.Ingester, whose side
// goroutine persists it without perturbing the step loop. The capture
// itself is collective (it reuses the WriteSnapshot gathers), so it runs
// inside the RunResilient OnCheckpoint hook where every rank is already at
// the same checkpointed step.

// CaptureServeSnapshot assembles the serving-layer field set: surface
// pressure and 10 m wind speed on atmosphere cells, SST and ice
// concentration on the global ocean grid, and — when the conservation audit
// is on — the latest interval's budget residuals as one-element fields.
// Collective: every rank must call it at the same step. Rank 0 receives the
// assembled snapshot and ok=true; the other ranks receive ok=false.
func (e *ESM) CaptureServeSnapshot() (snap statestore.Snapshot, ok bool) {
	ps := e.GlobalAtmPs()
	speed := e.atmWindSpeed()

	o := e.Ocn
	b := o.B
	sstG := b.GatherGlobal(o.T[:o.LNI*o.LNJ])
	iceG := b.GatherGlobal(e.Ice.Conc)

	if e.Comm.Rank() != 0 {
		return statestore.Snapshot{}, false
	}
	snap = statestore.Snapshot{
		Step:    e.CouplingSteps(),
		SimTime: e.SimulatedSeconds(),
		Fields: []statestore.Field{
			{Name: statestore.PsField, Data: ps},
			{Name: statestore.WindField, Data: speed},
			{Name: statestore.SSTField, Data: sstG},
			{Name: statestore.IceField, Data: iceG},
		},
	}
	if l := e.Budget(); l != nil {
		// The ledger exists for the whole run, so including the residual
		// fields keeps the store schema fixed; before the first audited
		// interval both residuals are simply zero.
		var heat, fw float64
		if iv, ok := l.Last(); ok {
			heat, fw = iv.HeatResid(), iv.FWResid()
		}
		snap.Fields = append(snap.Fields,
			statestore.Field{Name: statestore.HeatResidField, Data: []float64{heat}},
			statestore.Field{Name: statestore.FWResidField, Data: []float64{fw}},
		)
	}
	return snap, true
}

// ServeCaptureHook adapts a statestore.Ingester into a RunResilient
// OnCheckpoint callback: every checkpoint is captured collectively and
// offered — non-blocking, drop-newest — to the store's persistence goroutine
// by rank 0. Checkpoints replayed after a rollback (a failed commit, or a
// fault after it) are filtered by step number: the replay is bit-for-bit, so
// the store's committed sequence stays strictly increasing even across
// recoveries.
func ServeCaptureHook(in *statestore.Ingester) func(e *ESM) {
	last := -1
	return func(e *ESM) {
		snap, ok := e.CaptureServeSnapshot()
		if !ok {
			return
		}
		if snap.Step <= last {
			return // replayed checkpoint after a rollback
		}
		last = snap.Step
		in.Offer(snap)
	}
}
