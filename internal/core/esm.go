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
	Rg  *Regridder

	Clock *coupler.Clock

	// Global surface fields shared with the atmosphere (identical on all
	// ranks after each coupling).
	sstGlobal []float64
	iceGlobal []float64

	obs obs.Observer

	couplingSteps int
	ocnStepsPer   int

	// Component schedule state (see schedule.go): the schedule selector,
	// the join channel of the ocean goroutine, and the overlap-fraction
	// accumulator.
	schedule   Schedule
	ocnDone    chan time.Duration
	overlapSum float64
	overlapN   int

	// Flux remap mode, the conservation-audit ledger (nil when auditing is
	// off) with its reduction's partial sums and totals, and the persistent
	// per-atmosphere-cell flux-part buffers used by the conservative remap
	// and the audit's export-side integrals (nil when neither needs them).
	remap               RemapMode
	ledger              *budget.Ledger
	auditPart, auditSum [auditTerms]float64
	af                  *atmFluxes

	// The coupling plan (ghost tables at every rank count, a router only
	// when decomposed), the land slots this rank steps (extended patch) and
	// audits (owned range) — empty on one rank, where the icosahedral
	// partition Atm.Decomp() is nil — and the persistent 10 m wind buffers
	// the surface loops fill in place. Every per-atmosphere-cell
	// buffer here (u10, v10, radLand, af) is laid out like the atmosphere's
	// own arrays: over its patch, in local ids, when decomposed.
	dst       *distState
	stepSlots []int
	ownSlots  []int
	u10, v10  []float64

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
	atm, err := atmos.New(cfg.AtmLevel, cfg.AtmNLev, cfg.AtmCfg, sp)
	if err != nil {
		return nil, fmt.Errorf("core: atmosphere: %w", err)
	}
	g, err := grid.NewTripolar(cfg.OcnNX, cfg.OcnNY, cfg.OcnNLev)
	if err != nil {
		return nil, fmt.Errorf("core: ocean grid: %w", err)
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
		Rg:       NewRegridder(atm.Mesh, g),
		Clock:    clk,
		obs:      ob,
		schedule: opt.schedule,
		ocnDone:  make(chan time.Duration, 1),
		remap:    opt.remap,
	}

	// Route the unmapped atmosphere cells — non-land cells whose spiral
	// search found no wet ocean column — to the land model so their surface
	// exchange is never silently dropped: the land model adopts them and the
	// atmosphere treats them as land columns.
	if len(e.Rg.Unmapped) > 0 {
		lnd.Adopt(atm.Mesh, e.Rg.Unmapped)
		for _, cell := range e.Rg.Unmapped {
			atm.IsLand[cell] = true
		}
	}
	if opt.audit {
		e.ledger = budget.NewLedger(ob)
	}

	// Atmosphere + land domain decomposition: partition the icosahedral
	// cells into compact owned patches and move the atmosphere onto this
	// rank's (after the regridder and Adopt, which read the whole mesh and
	// the global IsLand) and split the land columns with the same ownership
	// map (after Adopt, so adopted cells are partitioned too). One rank stays
	// undecomposed: the patch would be the whole mesh.
	if c.Size() > 1 {
		d, err := atm.Decompose(c)
		if err != nil {
			return nil, fmt.Errorf("core: atmosphere decomposition: %w", err)
		}
		d.SetObserver(ob)
		// Columns stepped (ext) against columns owned: the redundancy the
		// partition costs this rank, on the record from assembly on.
		ob.SetGauge("atm.decomp.owned", float64(d.NOwned()))
		ob.SetGauge("atm.decomp.ext", float64(len(d.ExtCells)))
		e.stepSlots = lnd.Slots(d.InExt)
		e.ownSlots = lnd.Slots(func(cell int) bool { return d.Owner(cell) == c.Rank() })
	}
	if err := e.initDistribute(); err != nil {
		return nil, err
	}

	// From here on atm.Mesh is what this rank stores: the patch, or the
	// whole mesh on one rank.
	nc := atm.Mesh.NCells()
	if opt.remap == RemapCons || opt.audit {
		e.af = newAtmFluxes(nc)
	}
	e.u10, e.v10 = make([]float64, nc), make([]float64, nc)
	e.radLand = make([]bool, nc)
	e.forLandStepped(func(_, lc int) { e.radLand[lc] = true })

	// Ocean steps per ocean coupling interval.
	ocnInterval := 86400.0 / float64(cfg.OcnCouplingsPerDay)
	e.ocnStepsPer = int(math.Round(ocnInterval / ocn.Cfg.DtBaroclinic))
	if e.ocnStepsPer < 1 {
		e.ocnStepsPer = 1
	}

	// Initial surface fields.
	e.sstGlobal = make([]float64, g.NX*g.NY)
	e.iceGlobal = make([]float64, g.NX*g.NY)
	e.refreshOceanSurface()
	e.applySurfaceToAtmos()
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

// landStep runs the direct atmosphere ↔ land exchange on land cells. One
// rank steps every land column. Decomposed, each rank steps the land columns
// of its extended patch: owned cells for real, halo cells redundantly — the
// halo's atmosphere forcing is bit-identical to the owner's, so the skin
// temperature the redundant physics columns read matches the owner exactly.
func (e *ESM) landStep() {
	e.Atm.Wind10mInto(e.u10, e.v10)
	u10, v10 := e.u10, e.v10
	dt := 86400.0 / float64(e.Cfg.AtmCouplingsPerDay)
	step := func(c, lc int) {
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
		resp, err := e.Lnd.StepCell(c, f, dt)
		if err == nil {
			// The land skin temperature is the surface the atmosphere sees.
			e.Atm.SST[lc] = resp.TSkin
		}
	}
	e.forLandStepped(step)
}

// forLandStepped visits the atmosphere cells whose land column this rank
// steps — every land cell on one rank, the extended patch's when decomposed
// — with each cell's global id c and its local id lc.
func (e *ESM) forLandStepped(fn func(c, lc int)) {
	e.forLand(e.stepSlots, func(_, c, lc int) { fn(c, lc) })
}

// forLand visits the land columns of slots (stepSlots or ownSlots) — every
// land column on one rank, where nothing is decomposed — with each slot,
// its cell's global id c (the land model's) and its local id lc (the
// atmosphere's).
func (e *ESM) forLand(slots []int, fn func(slot, c, lc int)) {
	d := e.Atm.Decomp()
	if d == nil {
		for slot, c := range e.Lnd.Cells {
			fn(slot, c, c)
		}
		return
	}
	for _, slot := range slots {
		c := e.Lnd.Cells[slot]
		fn(slot, c, d.LocalCell(c))
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

// iceStep imports atmosphere and ocean state into the ice model, steps it,
// and refreshes the global ice fraction.
func (e *ESM) iceStep() {
	e.iceForcing()
	e.Ice.Step()
	e.refreshOceanSurface()
	e.applySurfaceToAtmos()
}

// Bulk air–sea flux constants, shared by the ocean-grid (nearest) and
// atmosphere-grid (conservative) flux computations.
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
// collectives safe). RemapNN computes fluxes on the ocean grid from the
// nearest atmosphere cell; RemapCons computes them per atmosphere cell and
// delivers the conservative overlap average. When auditing, the ledger
// records the interval's interface and storage terms afterwards.
func (e *ESM) oceanImport() {
	if e.af != nil {
		e.computeAtmFluxes()
	}
	if e.remap == RemapCons {
		e.importConservative()
	} else {
		e.importNearest()
	}
	if e.ledger != nil {
		e.auditRecord()
	}
}

// nearestFluxes sets the air–sea fluxes of the wet ocean column at local
// index idx from its nearest atmosphere cell's 10 m wind (u, v), surface
// air (tair, qair), held radiation (sw, lw) and precipitation, read by
// ghost id at any rank count.
func (e *ESM) nearestFluxes(idx int, u, v, tair, qair, sw, lw, precip float64) {
	o := e.Ocn
	open := 1 - e.Ice.Conc[idx]
	sstK := o.T[idx] + 273.15
	wind := math.Hypot(u, v)

	// Momentum: bulk stress from the local wind, attenuated by ice.
	o.TauX[idx] = rhoAirSfc * bulkCd * wind * u * open
	o.TauY[idx] = rhoAirSfc * bulkCd * wind * v * open

	// Turbulent heat fluxes against the ocean's own SST.
	shf := rhoAirSfc * atmos.Cpd * bulkCh * wind * (sstK - tair)
	evap := rhoAirSfc * bulkCe * wind * (qsatSea(sstK) - qair)
	if evap < 0 {
		evap = 0
	}
	lhf := atmos.LatVap * evap

	qnet := (1-oceanAlbedo)*sw +
		oceanEmiss*(lw-sigmaSB*sstK*sstK*sstK*sstK) -
		shf - lhf
	o.QHeat[idx] = qnet*open + e.Ice.FreezeHeat[idx]
	// Freshwater: (evaporation − precipitation) concentrates salt.
	emp := evap - precip
	o.FWFlux[idx] = ocean.SRef * emp / (ocean.Rho0 * firstLayerDepth(o))
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

// atmFluxCell fills the flux parts of the atmosphere cell with global id g
// and local id c (see computeAtmFluxes).
func (e *ESM) atmFluxCell(g, c int) {
	a := e.Atm
	u10, v10 := e.u10, e.v10
	f := e.af
	if a.IsLand[c] || e.Rg.AtmOverlapArea[g] == 0 {
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
		UnmappedCells: len(e.Rg.Unmapped),
	}
	// Ocean-side: undo the freshwater flux scaling to recover the delivered
	// E−P, and split the same-grid ice→ocean heat out of QHeat so the
	// interface terms compare like for like.
	empScale := ocean.Rho0 * firstLayerDepth(o) / ocean.SRef
	var heatIn, fwIn, iceHeat float64
	for lj := 0; lj < b.NJ; lj++ {
		for li := 0; li < b.NI; li++ {
			idx := b.LIdx(li, lj)
			gi := b.GIdx(li, lj)
			if !o.G.Mask[gi] {
				continue
			}
			area := o.G.Area[gi]
			heatIn += area * (o.QHeat[idx] - e.Ice.FreezeHeat[idx])
			fwIn += area * o.FWFlux[idx] * empScale
			iceHeat += area * e.Ice.FreezeHeat[idx]
		}
	}
	// Atmosphere-side partials over this rank's owned cells (the owned cells
	// partition the mesh, so the sum over ranks reproduces the one-rank
	// integrals up to summation order), batched with the ocean-side terms
	// into one 16-term reduction. The flux parts and the cell areas are the
	// patch's (local ids), the overlap areas global.
	const rhoWater = 1000.0
	var aSW, aLW, aSens, aLat, aCpl, aGross, aFW, aFWGross float64
	e.forAtmOwned(func(g, c int) {
		ar := e.Rg.AtmOverlapArea[g]
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
	e.forLand(e.ownSlots, func(slot, _, c int) {
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

// refreshOceanSurface gathers SST and ice fraction into global arrays and
// broadcasts them so every rank's atmosphere patch sees the same surface.
func (e *ESM) refreshOceanSurface() {
	b := e.Ocn.B
	sstG := b.GatherGlobal(e.Ocn.T[:b.LNI()*b.LNJ()])
	iceG := b.GatherGlobal(e.Ice.Conc)
	e.sstGlobal = par.Bcast(e.Comm, 0, sstG)
	e.iceGlobal = par.Bcast(e.Comm, 0, iceG)
}

// applySurfaceToAtmos maps the global ocean surface onto the atmosphere
// cells this rank holds.
func (e *ESM) applySurfaceToAtmos() {
	global := e.Atm.Mesh.GlobalCell // nil on one rank: local ids are global
	for c := 0; c < e.Atm.Mesh.NCells(); c++ {
		if e.Atm.IsLand[c] {
			continue // land skin temperature is owned by the land model
		}
		g := c
		if global != nil {
			g = int(global[c])
		}
		oc := e.Rg.AtmToOcn[g]
		if oc < 0 {
			continue
		}
		e.Atm.SST[c] = e.sstGlobal[oc] + 273.15
		e.Atm.IceFrac[c] = e.iceGlobal[oc]
	}
}

// CouplingSteps returns the number of completed coupling intervals.
func (e *ESM) CouplingSteps() int { return e.couplingSteps }

// SimulatedSeconds returns the simulated time advanced so far.
func (e *ESM) SimulatedSeconds() float64 {
	return float64(e.couplingSteps) * 86400 / float64(e.Cfg.AtmCouplingsPerDay)
}
