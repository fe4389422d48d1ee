package core

import (
	"fmt"
	"math"
	"time"

	"repro/internal/atmos"
	"repro/internal/budget"
	"repro/internal/coupler"
	"repro/internal/fault"
	"repro/internal/grid"
	"repro/internal/land"
	"repro/internal/obs"
	"repro/internal/ocean"
	"repro/internal/par"
	"repro/internal/pp"
	"repro/internal/seaice"
)

// ESM is the assembled coupled model. It runs SPMD over a communicator with
// both task domains domain-decomposed — the ocean and sea ice over a 2D
// tripolar block partition with land-block elimination (the paper's second
// task domain), the atmosphere and land over an icosahedral cell partition
// (the first). On one rank the partitions are the whole grids and the
// atmosphere's storage stays replicated (Atm.Decomp() == nil), but the
// coupling reads the same ghost tables as at any other rank count
// (DESIGN.md "Unified domain decomposition").
// The coupling clock and per-component alarms follow CPL7 (§5.1.1): 180
// atmosphere, 36 ocean, and 180 sea-ice couplings per simulated day.
type ESM struct {
	Cfg  Config
	Comm *par.Comm

	Atm *atmos.Model
	Ocn *ocean.Ocean
	Ice *seaice.Model
	Lnd *land.Model

	Clock *coupler.Clock

	obs obs.Observer

	couplingSteps int
	ocnStepsPer   int

	// Component schedule state (see schedule.go): the schedule selector
	// and the join channel of the ocean goroutine.
	schedule Schedule
	ocnDone  chan time.Duration

	// The conservation-audit ledger (nil when auditing is off) with its
	// reduction's partial sums and totals, and the persistent
	// per-atmosphere-cell flux-part buffers the conservative remap and the
	// audit's export-side integrals read.
	ledger              *budget.Ledger
	auditPart, auditSum [auditTerms]float64
	af                  *atmFluxes

	// The coupling plan (ghost tables at every rank count, a router only
	// when decomposed), the land columns' place in the model's whole set
	// (see landCols), and the persistent 10 m wind buffers the surface loops
	// fill in place. Every per-atmosphere-cell buffer here (u10, v10,
	// radLand, af) is laid out like the atmosphere's own arrays: over its
	// patch, in local ids, when decomposed.
	dst      *distState
	lnd      landCols
	u10, v10 []float64

	// radLand marks the cells landStep forces on this rank — the readers of
	// held surface radiation, halo cells included (see atmosphereStep).
	radLand []bool
}

// atmFluxes holds the per-atmosphere-cell air–sea flux parts, positive into
// the ocean, with the open-water fraction already folded in.
type atmFluxes struct {
	sw, lw, sens, lat, qnet []float64 // W/m²
	emp                     []float64 // evaporation − precipitation, kg/m²/s
	taux, tauy              []float64 // N/m²
}

func newAtmFluxes(n int) *atmFluxes {
	return &atmFluxes{
		sw: make([]float64, n), lw: make([]float64, n),
		sens: make([]float64, n), lat: make([]float64, n),
		qnet: make([]float64, n), emp: make([]float64, n),
		taux: make([]float64, n), tauy: make([]float64, n),
	}
}

// RanksExceedCellsError is the assembly error for a communicator with more
// ranks than the atmosphere has cells: some rank would own no column.
type RanksExceedCellsError struct {
	Ranks, Cells int
}

func (e *RanksExceedCellsError) Error() string {
	return fmt.Sprintf("core: %d ranks exceed the atmosphere's %d cells", e.Ranks, e.Cells)
}

// assemble builds the model from resolved options.
func assemble(cfg Config, c *par.Comm, opt options) (*ESM, error) {
	// Refuse a rank that would own no column from the closed-form count,
	// before any rank builds a grid only to throw it away. A level outside
	// the buildable range is left to atmos.New to reject.
	if nc, _, _ := grid.IcosCounts(cfg.AtmLevel); cfg.AtmLevel >= 0 && int64(c.Size()) > nc {
		return nil, &RanksExceedCellsError{Ranks: c.Size(), Cells: int(nc)}
	}
	start, stop := opt.start, opt.stop
	sp, ob := opt.sp, opt.obs
	if _, disabled := ob.(obs.Nop); !disabled {
		// Live instrumentation: the communicator forwards traffic counts and
		// the execution space reports kernel launches to the same observer.
		c.SetObserver(ob)
		sp = pp.Instrument(sp, ob)
	}
	// The atmosphere: the whole globe on one rank. Decomposed, a rank
	// builds the whole mesh's topology and the owner table first, then its
	// patch (grid.NewPatchDecomp) and the atmosphere on it; the whole mesh
	// and the owner table live on only until the coupling plan is built.
	var (
		atm   *atmos.Model
		mesh  *grid.IcosMesh
		owner []int32
		d     *grid.IcosDecomp
		err   error
	)
	if c.Size() == 1 {
		atm, err = atmos.New(cfg.AtmLevel, cfg.AtmNLev, cfg.AtmCfg, sp)
	} else if mesh, err = grid.NewIcosMesh(cfg.AtmLevel); err == nil {
		owner = grid.IcosOwners(mesh, c.Size())
		if d, err = grid.NewPatchDecomp(mesh, owner, c); err == nil {
			atm, err = atmos.NewPatch(mesh, d, cfg.AtmNLev, cfg.AtmCfg, sp)
		}
	}
	if err != nil {
		return nil, fmt.Errorf("core: atmosphere: %w", err)
	}
	g, err := grid.NewTripolar(cfg.OcnNX, cfg.OcnNY, cfg.OcnNLev)
	if err != nil {
		return nil, fmt.Errorf("core: ocean grid: %w", err)
	}
	if opt.dry != nil {
		opt.dry(g)
	}
	// Ocean + sea-ice decomposition: a 2D tripolar block partition with
	// land-block elimination (the 1×1 layout on one rank).
	blk, err := grid.NewTripolarDecomp(g, c, 1)
	if err != nil {
		return nil, fmt.Errorf("core: ocean decomposition: %w", err)
	}
	blk.SetObserver(ob)
	ocnCfg := cfg.OcnCfg
	ocnCfg.Policy = cfg.Policy
	ocn, err := ocean.New(g, blk, ocnCfg, sp)
	if err != nil {
		return nil, fmt.Errorf("core: ocean: %w", err)
	}
	ice, err := seaice.New(g, blk, cfg.IceCfg)
	if err != nil {
		return nil, fmt.Errorf("core: sea ice: %w", err)
	}
	// The land columns of the cells the atmosphere holds, in its ids.
	lnd, err := land.New(atm.Mesh, land.DefaultConfig())
	if err != nil {
		return nil, fmt.Errorf("core: land: %w", err)
	}

	// Coupling clock: the base step is the shortest coupling period.
	baseStep, err := coupler.PeriodForCouplingsPerDay(cfg.AtmCouplingsPerDay)
	if err != nil {
		return nil, err
	}
	clk, err := coupler.NewClock(start, stop, baseStep)
	if err != nil {
		return nil, err
	}
	for name, perDay := range map[string]int{
		"atm": cfg.AtmCouplingsPerDay,
		"ocn": cfg.OcnCouplingsPerDay,
		"ice": cfg.IceCouplingsPerDay,
	} {
		p, err := coupler.PeriodForCouplingsPerDay(perDay)
		if err != nil {
			return nil, err
		}
		if err := clk.AddAlarm(name, p); err != nil {
			return nil, err
		}
	}

	e := &ESM{
		Cfg: cfg, Comm: c,
		Atm: atm, Ocn: ocn, Ice: ice, Lnd: lnd,
		Clock:    clk,
		obs:      ob,
		schedule: opt.schedule,
		ocnDone:  make(chan time.Duration, 1),
	}

	if opt.audit {
		e.ledger = budget.NewLedger(ob)
	}

	// The land columns' place in the whole set and the coupling plan.
	nc := atm.Mesh.NCells()
	e.u10, e.v10 = make([]float64, nc), make([]float64, nc)
	if d == nil {
		if err := e.assembleWhole(g); err != nil {
			return nil, err
		}
	} else {
		d.SetObserver(ob)
		// Columns stepped (ext) against columns owned: the redundancy the
		// partition costs this rank, on the record from assembly on.
		ob.SetGauge("atm.decomp.owned", float64(d.NOwned()))
		ob.SetGauge("atm.decomp.ext", float64(d.Patch.NCells()))
		if err := e.assemblePatch(mesh, owner, g); err != nil {
			return nil, err
		}
	}
	e.af = newAtmFluxes(nc)
	e.radLand = make([]bool, nc)
	e.forLand(func(_, lc int) { e.radLand[lc] = true })

	// Ocean steps per ocean coupling interval.
	ocnInterval := 86400.0 / float64(cfg.OcnCouplingsPerDay)
	e.ocnStepsPer = int(math.Round(ocnInterval / ocn.Cfg.DtBaroclinic))
	if e.ocnStepsPer < 1 {
		e.ocnStepsPer = 1
	}

	// Initial surface fields.
	e.exportSurface()
	return e, nil
}

// Step advances one coupling interval; returns false when the clock is done.
//
// Both schedules run one shared dataflow per base step: (1) when the ocean
// couples this interval, import its air–sea fluxes from the currently
// exported surface state — the previous interval's export, which stays
// frozen until the export phase (the import barrier); (2) advance the two
// independent component groups, the ocean's baroclinic substeps and the
// atmosphere + land step, which read and write disjoint state; (3) couple
// the sea ice and export the new ocean surface to the atmosphere (the
// export barrier). ScheduleSeq runs the groups back to back; ScheduleConc
// overlaps them — bit-for-bit identically, because nothing crosses between
// the barriers either way.
func (e *ESM) Step() bool {
	ringing, ok := e.Clock.Advance()
	if !ok {
		return false
	}
	var atmRings, iceRings, ocnRings bool
	for _, name := range ringing {
		switch name {
		case "atm":
			atmRings = true
		case "ice":
			iceRings = true
		case "ocn":
			ocnRings = true
		}
	}
	if e.schedule == ScheduleConc && ocnRings {
		e.stepConcurrent(atmRings, iceRings)
	} else {
		if ocnRings {
			e.timed("ocn", func() {
				e.oceanImport()
				e.oceanSubsteps()
			})
		}
		if atmRings {
			e.timed("atm", e.atmosphereStep)
		}
		if iceRings {
			e.timed("ice", e.iceStep)
		}
	}
	e.couplingSteps++
	if f := fault.Point("esm.step", e.Comm.Rank()); f != nil && f.Kind == fault.NaN {
		// Silent data corruption in a coupled prognostic field — the failure
		// mode the per-step health guardrails exist to catch.
		e.Ocn.T[e.ocnIdx2(0, 0)] = math.NaN()
	}
	return true
}

// RunDays integrates n simulated days (or until the clock stops).
func (e *ESM) RunDays(days float64) int {
	steps := int(days * float64(e.Cfg.AtmCouplingsPerDay))
	n := 0
	for i := 0; i < steps; i++ {
		if !e.Step() {
			break
		}
		n++
	}
	return n
}

// atmosphereStep runs one atmosphere model step plus the direct land
// exchange (the land model bypasses the coupler, §5.1.1). Every rank steps
// its own patch and the halo exchanges inside StepModel are the only
// cross-rank traffic.
//
// Surface radiation has its own time step, the ocean-coupling interval
// (DESIGN.md "Radiation step and hold"): GSW/GLW are diagnosed on the step
// whose result oceanImport reads — the one before the ocean alarm rings — for
// the owned cells plus the halo cells landStep reads here, and held in
// between. The first step of a cold start diagnoses the land-stepped cells,
// so landStep never reads the initial zeros; a restart brings the held
// values with it.
func (e *ESM) atmosphereStep() {
	radStep := e.Clock.Due("ocn")
	e.Atm.DemandRadiation(e.radLand, radStep || e.couplingSteps == 0, radStep)
	swept := e.Atm.RadiationColumns()
	e.Atm.StepModel()
	e.obs.AddCount("atm.rad.columns", int64(e.Atm.RadiationColumns()-swept))
	e.landStep()
}

// landStep runs the direct atmosphere ↔ land exchange on every land column
// this rank holds. One rank holds every land column. Decomposed, a rank
// holds the land columns of its extended patch: owned cells for real, halo
// cells redundantly — the halo's atmosphere forcing is bit-identical to the
// owner's, so the skin temperature the redundant physics columns read
// matches the owner exactly.
func (e *ESM) landStep() {
	e.Atm.Wind10mInto(e.u10, e.v10)
	u10, v10 := e.u10, e.v10
	dt := 86400.0 / float64(e.Cfg.AtmCouplingsPerDay)
	e.forLand(func(slot, lc int) {
		tair, qair := e.Atm.SurfaceAir(lc)
		f := land.Forcing{
			GSW:    e.Atm.GSW[lc],
			GLW:    e.Atm.GLW[lc],
			TAir:   tair,
			QAir:   qair,
			Wind:   math.Hypot(u10[lc], v10[lc]),
			Precip: e.Atm.Precip[lc],
			PSfc:   e.Atm.Ps[lc],
		}
		// The land skin temperature is the surface the atmosphere sees.
		e.Atm.SST[lc] = e.Lnd.StepSlot(slot, f, dt).TSkin
	})
}

// forLand visits the land columns this rank holds, with each slot and its
// atmosphere cell's local id lc.
func (e *ESM) forLand(fn func(slot, lc int)) {
	for slot, lc := range e.Lnd.Cells {
		fn(slot, lc)
	}
}

// forOwnLand visits, in ascending slot, the land columns whose cell this
// rank owns — every column on one rank — with each slot and its
// atmosphere cell's local id lc: the columns it audits and writes to a
// restart.
func (e *ESM) forOwnLand(fn func(slot, lc int)) {
	if e.Atm.Decomp() == nil {
		e.forLand(fn)
		return
	}
	for _, slot := range e.lnd.own {
		fn(slot, e.Lnd.Cells[slot])
	}
}

// forAtmOwned visits, in ascending global order, the atmosphere cells this
// rank owns — every cell on one rank — with each cell's global id c and its
// local id lc.
func (e *ESM) forAtmOwned(fn func(c, lc int)) {
	d := e.Atm.Decomp()
	if d == nil {
		for c := 0; c < e.Atm.Mesh.NCells(); c++ {
			fn(c, c)
		}
		return
	}
	for i, c := range d.Owned {
		fn(c, d.OwnedLocal[i])
	}
}

// iceStep refreshes the atmosphere values the ice model's Forcing reads,
// steps the ice, and exports the new ocean surface to the atmosphere.
func (e *ESM) iceStep() {
	e.iceForcing()
	e.Ice.Step()
	e.exportSurface()
}

// Bulk air–sea flux constants of the per-atmosphere-cell flux parts.
const (
	oceanAlbedo = 0.07
	oceanEmiss  = 0.97
	sigmaSB     = 5.670e-8
	bulkCd      = 1.3e-3
	bulkCh      = 1.0e-3
	bulkCe      = 1.2e-3
	rhoAirSfc   = 1.2
)

// oceanImport is the ocean group's import barrier — the flux coupler's job
// in CPL7: compute the air–sea fluxes and hand them to the ocean. Everything
// it reads from the atmosphere and ice is the state exported at the end of
// the previous base step, so it runs before the groups advance (on the
// driver goroutine under both schedules, which also makes the audit's
// collectives safe). It computes the fluxes per atmosphere cell and
// delivers each ocean column their conservative overlap average. When
// auditing, the ledger records the interval's interface and storage terms
// afterwards.
func (e *ESM) oceanImport() {
	e.computeAtmFluxes()
	e.importConservative()
	if e.ledger != nil {
		e.auditRecord()
	}
}

// computeAtmFluxes fills the per-atmosphere-cell flux parts from the
// atmosphere-visible surface state (its imported SST and ice fraction), with
// the open-water fraction folded in. Land and zero-overlap cells hold zero
// — destination-area normalization: their overlap weight stays in the
// conservative rows, damping coastal fluxes instead of breaking the
// conservation identity.
func (e *ESM) computeAtmFluxes() {
	e.Atm.Wind10mInto(e.u10, e.v10)
	// Owned cells only: the flux parts feed the audit's owned-range partial
	// sums and the conservative packer, both owner-indexed.
	e.forAtmOwned(e.atmFluxCell)
}

// atmFluxCell fills the flux parts of the atmosphere cell with local id c
// (see computeAtmFluxes).
func (e *ESM) atmFluxCell(_, c int) {
	a := e.Atm
	u10, v10 := e.u10, e.v10
	f := e.af
	if a.IsLand[c] || e.dst.overlap[c] == 0 {
		f.sw[c], f.lw[c], f.sens[c], f.lat[c], f.qnet[c] = 0, 0, 0, 0, 0
		f.emp[c], f.taux[c], f.tauy[c] = 0, 0, 0
		return
	}
	open := 1 - a.IceFrac[c]
	sstK := a.SST[c]
	wind := math.Hypot(u10[c], v10[c])
	tair, qair := a.SurfaceAir(c)

	shf := rhoAirSfc * atmos.Cpd * bulkCh * wind * (sstK - tair)
	evap := rhoAirSfc * bulkCe * wind * (qsatSea(sstK) - qair)
	if evap < 0 {
		evap = 0
	}
	f.sw[c] = (1 - oceanAlbedo) * a.GSW[c] * open
	f.lw[c] = oceanEmiss * (a.GLW[c] - sigmaSB*sstK*sstK*sstK*sstK) * open
	f.sens[c] = -shf * open
	f.lat[c] = -atmos.LatVap * evap * open
	f.qnet[c] = f.sw[c] + f.lw[c] + f.sens[c] + f.lat[c]
	f.emp[c] = evap - a.Precip[c]
	f.taux[c] = rhoAirSfc * bulkCd * wind * u10[c] * open
	f.tauy[c] = rhoAirSfc * bulkCd * wind * v10[c] * open
}

// auditTerms is the number of partial sums auditRecord reduces.
const auditTerms = 16

// auditRecord tallies one coupling interval into the ledger. Every term —
// both sides of every interface plus every store — is an owned-range
// partial sum, and all of them travel in a single batched reduction between
// two persistent buffers (a copy on one rank, which allocates nothing).
func (e *ESM) auditRecord() {
	o := e.Ocn
	b := o.B
	f := e.af
	iv := budget.Interval{
		Seconds:       86400 / float64(e.Cfg.OcnCouplingsPerDay),
		UnmappedCells: e.dst.unmapped,
	}
	// Ocean-side: undo the freshwater flux scaling to recover the delivered
	// E−P, and split the same-grid ice→ocean heat out of QHeat so the
	// interface terms compare like for like.
	empScale := ocean.Rho0 * firstLayerDepth(o) / ocean.SRef
	var heatIn, fwIn, iceHeat float64
	for lj := 0; lj < b.NJ; lj++ {
		for li := 0; li < b.NI; li++ {
			if !o.Wet(li, lj) {
				continue
			}
			idx := b.LIdx(li, lj)
			area := o.G.CellArea(b.J0 + lj)
			heatIn += area * (o.QHeat[idx] - e.Ice.FreezeHeat[idx])
			fwIn += area * o.FWFlux[idx] * empScale
			iceHeat += area * e.Ice.FreezeHeat[idx]
		}
	}
	// Atmosphere-side partials over this rank's owned cells (the owned cells
	// partition the mesh, so the sum over ranks reproduces the one-rank
	// integrals up to summation order), batched with the ocean-side terms
	// into one 16-term reduction. The flux parts, the cell areas and the
	// overlap areas are the patch's (local ids).
	const rhoWater = 1000.0
	var aSW, aLW, aSens, aLat, aCpl, aGross, aFW, aFWGross float64
	e.forAtmOwned(func(_, c int) {
		ar := e.dst.overlap[c]
		if ar == 0 {
			return
		}
		aSW += ar * f.sw[c]
		aLW += ar * f.lw[c]
		aSens += ar * f.sens[c]
		aLat += ar * f.lat[c]
		aCpl += ar * f.qnet[c]
		aGross += ar * math.Abs(f.qnet[c])
		aFW += ar * f.emp[c]
		aFWGross += ar * math.Abs(f.emp[c])
	})
	var lndWater float64
	e.forOwnLand(func(slot, c int) {
		lndWater += e.Lnd.Bucket[slot] * e.Atm.Mesh.AreaCell[c] *
			grid.EarthRadius * grid.EarthRadius * rhoWater
	})
	e.auditPart = [auditTerms]float64{
		aSW, aLW, aSens, aLat, aCpl, aGross, aFW, aFWGross,
		heatIn, fwIn, iceHeat,
		o.HeatContentLocal(), o.SaltContentLocal(), e.Ice.LocalVolume(),
		lndWater, e.Atm.TotalMoistureLocal(),
	}
	sums := &e.auditSum
	e.Comm.AllreduceSliceInto(sums[:], e.auditPart[:], par.OpSum)
	iv.HeatSW, iv.HeatLW, iv.HeatSens, iv.HeatLat = sums[0], sums[1], sums[2], sums[3]
	iv.HeatAtmCpl, iv.HeatGross, iv.FWAtmCpl, iv.FWGross = sums[4], sums[5], sums[6], sums[7]
	iv.HeatCplOcn, iv.FWCplOcn, iv.HeatIceOcn = sums[8], sums[9], sums[10]
	iv.OcnHeat, iv.OcnSalt = sums[11], sums[12]
	iv.IceFW = seaice.RhoIce * sums[13]
	iv.LndWater = sums[14]
	iv.AtmWater = sums[15]
	e.ledger.Record(iv)
}

// Budget returns the conservation-audit ledger, or nil when auditing is off.
func (e *ESM) Budget() *budget.Ledger { return e.ledger }

// oceanSubsteps integrates the ocean over its coupling interval — the
// baroclinic sub-step loop that the concurrent schedule overlaps with the
// atmosphere + land group. It touches only ocean state and the ocean
// block's point-to-point halo traffic; the refreshed surface is exported
// to the atmosphere afterwards in iceStep, the base step's export phase.
func (e *ESM) oceanSubsteps() {
	for s := 0; s < e.ocnStepsPer; s++ {
		e.Ocn.Step()
	}
}

func firstLayerDepth(o *ocean.Ocean) float64 { return o.G.LevelDepth[0] }

// qsatSea is the saturation specific humidity over seawater at 1000 hPa
// (98 % of pure water's, the usual salinity correction).
func qsatSea(tK float64) float64 {
	es := 610.78 * math.Exp(17.27*(tK-273.15)/(tK-35.85))
	return 0.98 * 0.622 * es / (1e5 - 0.378*es)
}

// ocnIdx2 mirrors the ocean's internal local indexing for driver reads.
func (e *ESM) ocnIdx2(li, lj int) int {
	return (lj+e.Ocn.B.H)*e.Ocn.B.LNI() + li + e.Ocn.B.H
}

// exportSurface is the ocean's export to the atmosphere: every atmosphere
// cell this rank holds that reads an ocean column — its ring-1 halo
// included — takes that column's SST and ice fraction through its ghost
// id. Atm.SST and Atm.IceFrac are the surface a later step reads.
func (e *ESM) exportSurface() {
	sst, ice := e.surfaceGhosts()
	for c, p := range e.dst.atmOcn {
		if p < 0 {
			continue // land (the land model's skin temperature) or no reachable column
		}
		e.Atm.SST[c] = sst[p] + 273.15
		e.Atm.IceFrac[c] = ice[p]
	}
}

// CouplingSteps returns the number of completed coupling intervals.
func (e *ESM) CouplingSteps() int { return e.couplingSteps }

// SimulatedSeconds returns the simulated time advanced so far.
func (e *ESM) SimulatedSeconds() float64 {
	return float64(e.couplingSteps) * 86400 / float64(e.Cfg.AtmCouplingsPerDay)
}
