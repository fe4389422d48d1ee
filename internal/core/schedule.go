package core

import (
	"fmt"
	"time"
)

// Schedule selects how the component groups advance within one coupling
// interval — the paper's concurrent-components lever (components on
// disjoint processor sets progressing simultaneously), mapped onto the
// reproduction's SPMD layout.
type Schedule int

const (
	// ScheduleSeq runs the ocean group, then the atmosphere + land group,
	// then the ice/export phase strictly in sequence on every rank.
	ScheduleSeq Schedule = iota
	// ScheduleConc overlaps the ocean group's baroclinic substeps with the
	// atmosphere + land group inside each coupling interval.
	ScheduleConc
)

// String implements fmt.Stringer.
func (s Schedule) String() string {
	switch s {
	case ScheduleSeq:
		return "seq"
	case ScheduleConc:
		return "conc"
	default:
		return fmt.Sprintf("Schedule(%d)", int(s))
	}
}

// ParseSchedule maps the -schedule flag values onto Schedule.
func ParseSchedule(name string) (Schedule, error) {
	switch name {
	case "seq":
		return ScheduleSeq, nil
	case "conc":
		return ScheduleConc, nil
	default:
		return 0, fmt.Errorf("core: unknown schedule %q (want seq or conc)", name)
	}
}

// Schedule returns the component schedule the model runs under.
func (e *ESM) Schedule() Schedule { return e.schedule }

// stepConcurrent advances one base step on which the ocean couples,
// overlapping the ocean group's baroclinic substeps with the atmosphere +
// land group. The two groups read and write disjoint state between the
// import and export barriers (see DESIGN.md), so the result is bit-for-bit
// identical to the sequential schedule.
//
// Concurrency discipline on the shared communicator: the ocean goroutine
// performs only point-to-point halo traffic on the tripolar decomposition's
// tag range, and during the overlap window the driver goroutine performs
// only the atmosphere's own point-to-point halo exchanges on the disjoint
// icosahedral tag range. Point-to-point matching is per (source, tag), so
// neither goroutine can consume the other's messages, and the halo
// exchanges are barrier-free by design so no collective runs concurrently
// with the ocean's traffic. The coupling rearranges, which do end in a
// barrier, run only on the driver goroutine outside the overlap window: in
// oceanImport before the ocean goroutine launches and in iceStep after the
// join. The ocean goroutine makes no obs span calls (spans nest per rank);
// its wall time is measured with a plain clock and folded into sections at
// the join.
func (e *ESM) stepConcurrent(atmRings, iceRings bool) {
	osp := e.obs.StartSpan("ocn")
	e.oceanImport()
	start := time.Now()
	go func() {
		e.oceanSubsteps()
		e.ocnDone <- time.Since(start)
	}()
	var atmDur time.Duration
	if atmRings {
		e.timed("atm", e.atmosphereStep)
		atmDur = time.Since(start)
	}
	wsp := e.obs.StartSpan("cpl.wait.ocn")
	ocnDur := <-e.ocnDone
	wsp.End()
	osp.End()

	if atmDur > ocnDur {
		// The ocean group finished first and idled until the join — the
		// load-imbalance signal the overlap instrumentation exists to show.
		addSection(e.obs, "cpl.wait.atm", atmDur-ocnDur)
	}
	longer, shorter := atmDur, ocnDur
	if ocnDur > longer {
		longer, shorter = ocnDur, atmDur
	}
	frac := 0.0
	if longer > 0 {
		frac = float64(shorter) / float64(longer)
	}
	e.obs.SetGauge("cpl.overlap.frac", frac)

	if iceRings {
		e.timed("ice", e.iceStep)
	}
}
