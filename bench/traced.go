package main

import (
	"fmt"
	"math"
	"os"
	"sort"
	"time"
)

// traced is the traced run. Per workload it runs one untraced and one traced
// lap on the same inputs: the traced lap has the span recorder around every
// call the harness makes and, on the model workloads, obs.New(rank, nil)
// attached so the model's sections and counters can be read; the pair gives
// the tracing overhead. Fixed auxiliary laps and the layer micro-harness
// then give the numbers that do not depend on the workload.
func (b *bench) traced(names []string) (map[string]result, []*recorder, error) {
	out := map[string]result{}
	var recs []*recorder
	perWorkload := map[string]metrics{}
	sets := map[string]*lapSet{}
	common := metrics{"harness.loadavg_start": loadavg()}
	for _, n := range names {
		base, err := b.lap(n, 0, false, false, nil)
		if err != nil {
			return nil, nil, fmt.Errorf("%s untraced lap: %w", n, err)
		}
		rec := newRecorder(n)
		tr, err := b.lap(n, 0, false, true, rec)
		if err != nil {
			return nil, nil, fmt.Errorf("%s traced lap: %w", n, err)
		}
		sets[n] = &lapSet{laps: []lapResult{base, tr}}
		perWorkload[n] = lapLayerMetrics(tr)
		baseSet := &lapSet{}
		baseSet.add(base)
		for k, v := range rawTimes(baseSet) {
			perWorkload[n][k] = v
		}
		perWorkload[n]["harness.trace_overhead_frac"] = bestOp(tr)/bestOp(base) - 1
		printSelfTimes(rec)
		recs = append(recs, rec)
	}

	if err := b.auxLaps(common); err != nil {
		return nil, nil, err
	}
	in := b.serveIn
	if in == nil {
		n := microSnapshots
		if b.smoke {
			n = 32
		}
		var err error
		if in, err = captureServeInput(n); err != nil {
			return nil, nil, err
		}
	}
	if err := layerMicro(common, in, b.dir, b.smoke); err != nil {
		return nil, nil, err
	}
	common["harness.loadavg_end"] = loadavg()

	for _, n := range names {
		vals := perWorkload[n]
		for k, v := range common {
			vals[k] = v
		}
		out[n] = b.result(n, sets[n], vals, perLayer)
	}
	return out, recs, nil
}

// lapLayerMetrics derives the per-layer metrics a traced lap carries, as
// per-op values over its timed window. A workload that does not reach a
// layer leaves that layer's counts at 0.
func lapLayerMetrics(tr lapResult) metrics {
	m := metrics{}
	nOps := float64(len(tr.opMs))
	wall := 0.0
	for _, v := range tr.opMs {
		wall += v
	}
	if hm := tr.cacheHits + tr.cacheMisses; hm > 0 {
		m["statestore.cache_hit_frac"] = float64(tr.cacheHits) / float64(hm)
	}
	if len(tr.counts) == 0 || nOps == 0 {
		return m
	}
	var sum layerCounts
	for _, c := range tr.counts {
		sum.icosMsgs += c.icosMsgs
		sum.icosBytes += c.icosBytes
		sum.triMsgs += c.triMsgs
		sum.triBytes += c.triBytes
		sum.p2pMsgs += c.p2pMsgs
		sum.p2pBytes += c.p2pBytes
		sum.launches += c.launches
	}
	r0 := tr.counts[0]
	m["core.atm_ms_per_op"] = ms(r0.atm) / nOps
	m["core.ocn_ms_per_op"] = ms(r0.ocn) / nOps
	m["core.ice_ms_per_op"] = ms(r0.ice) / nOps
	m["core.section_cover_frac"] = ms(r0.atm+r0.ocn+r0.ice) / wall
	m["core.audit_resid_max"] = tr.auditResid
	m["core.rollbacks_per_lap"] = float64(tr.rollbacks)
	m["core.redone_steps_per_lap"] = float64(tr.redone)
	m["grid.icos_halo_msgs_per_op"] = float64(sum.icosMsgs) / nOps
	m["grid.icos_halo_bytes_per_op"] = float64(sum.icosBytes) / nOps
	m["grid.tri_halo_msgs_per_op"] = float64(sum.triMsgs) / nOps
	m["grid.tri_halo_bytes_per_op"] = float64(sum.triBytes) / nOps
	m["par.p2p_msgs_per_op"] = float64(sum.p2pMsgs) / nOps
	m["par.p2p_bytes_per_op"] = float64(sum.p2pBytes) / nOps
	m["par.coll_per_op"] = float64(r0.coll) / nOps
	m["pp.launches_per_op"] = float64(sum.launches) / nOps
	return m
}

// auxLaps runs the short fixed laps behind the cross-workload numbers: the
// 1-rank model with and without the observer (obs.overhead_frac), the same
// on 2 ranks (parallel efficiency, rank imbalance), and 8 ranks for message
// counts only — 8 ranks on fewer cores give no wall clock worth reading.
func (b *bench) auxLaps(m metrics) error {
	ops := 12
	if b.smoke {
		ops = smokeOps
	}
	run := func(ranks, ops int, observe bool) (lapResult, error) {
		l, err := modelLap(modelSpec{ranks: ranks, warm: warmSteps, ops: ops, observe: observe}, b.seed, 0, b.dir, nil)
		if err == nil && l.gate != nil {
			err = l.gate
		}
		if err != nil {
			err = fmt.Errorf("auxiliary %d-rank lap: %w", ranks, err)
		}
		return l, err
	}
	nop, err := run(1, ops, false)
	if err != nil {
		return err
	}
	r1, err := run(1, ops, true)
	if err != nil {
		return err
	}
	r2, err := run(2, ops, true)
	if err != nil {
		return err
	}
	r8, err := run(8, 2, true)
	if err != nil {
		return err
	}
	m["obs.overhead_frac"] = bestOp(r1)/bestOp(nop) - 1
	m["core.parallel_eff_r2"] = bestOp(r1) / (2 * bestOp(r2))
	maxAtm, sumAtm := 0.0, 0.0
	for _, c := range r2.counts {
		maxAtm = math.Max(maxAtm, ms(c.atm))
		sumAtm += ms(c.atm)
	}
	m["core.rank_imbalance_r2"] = maxAtm / (sumAtm / float64(len(r2.counts)))
	for k, v := range lapLayerMetrics(r8) {
		switch k {
		case "grid.icos_halo_msgs_per_op", "grid.icos_halo_bytes_per_op", "grid.tri_halo_msgs_per_op", "grid.tri_halo_bytes_per_op":
			m[k+"_r8"] = v
		}
	}
	return nil
}

// printSelfTimes prints where a traced lap's time went: self time per span
// name, a span's duration minus what its children cover.
func printSelfTimes(rec *recorder) {
	self := rec.selfTimes()
	var names []string
	var total time.Duration
	for k, v := range self {
		names = append(names, k)
		total += v
	}
	sort.Slice(names, func(i, j int) bool { return self[names[i]] > self[names[j]] })
	fmt.Fprintf(os.Stderr, "%s traced lap, self time by span:\n", rec.workload)
	for _, k := range names {
		fmt.Fprintf(os.Stderr, "  %-24s %10.1f ms  %5.1f%%\n", k, ms(self[k]), 100*float64(self[k])/float64(total))
	}
}
