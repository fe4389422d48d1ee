package main

// metricDef names one emitted metric. BENCHMARK.json carries the same
// tables; TestBenchmarkJSONMatchesTables keeps the two in step.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

const (
	lower  = "lower"
	higher = "higher"
)

// endToEnd are the metrics of an untraced run, the same three for every
// workload. A bound is the share of the parent's median by which the metric
// may get worse; README.md has the calibration behind each.
var endToEnd = []metricDef{
	{"setup_s", "s", lower, 0.25},
	{"op_ms_best", "ms", lower, 0.25},
	{"heap_live_mb", "MB", lower, 0.05},
}

// perLayer are the metrics of a traced run. Those read from the traced lap
// of the named workload (sections, per-op counts, cache hits, harness.*)
// are 0 on a workload that does not reach the layer; the rest come from
// fixed auxiliary laps and the layer micro-harness and do not depend on the
// workload.
var perLayer = []metricDef{
	{Name: "core.atm_ms_per_op", Unit: "ms", Better: lower},
	{Name: "core.ocn_ms_per_op", Unit: "ms", Better: lower},
	{Name: "core.ice_ms_per_op", Unit: "ms", Better: lower},
	{Name: "core.section_cover_frac", Unit: "frac", Better: higher},
	{Name: "core.assemble_ms", Unit: "ms", Better: lower},
	{Name: "core.rank_imbalance_r2", Unit: "ratio", Better: lower},
	{Name: "core.parallel_eff_r2", Unit: "frac", Better: higher},
	{Name: "core.audit_resid_max", Unit: "rel", Better: lower},
	{Name: "core.capture_ms", Unit: "ms", Better: lower},
	{Name: "core.alloc_bytes_per_step", Unit: "B", Better: lower},
	{Name: "core.write_restart_ms", Unit: "ms", Better: lower},
	{Name: "core.read_restart_ms", Unit: "ms", Better: lower},
	{Name: "core.restart_bytes", Unit: "B", Better: lower},
	{Name: "core.rollback_ms", Unit: "ms", Better: lower},
	{Name: "core.rollbacks_per_lap", Unit: "count", Better: lower},
	{Name: "core.redone_steps_per_lap", Unit: "count", Better: lower},

	{Name: "atmos.step_ms", Unit: "ms", Better: lower},
	{Name: "atmos.step_norad_ms", Unit: "ms", Better: lower},
	{Name: "atmos.rad_share", Unit: "frac", Better: lower},
	{Name: "atmos.rad_us_per_col", Unit: "us", Better: lower},
	{Name: "atmos.column_us", Unit: "us", Better: lower},
	{Name: "ocean.step_ms", Unit: "ms", Better: lower},
	{Name: "seaice.step_ms", Unit: "ms", Better: lower},
	{Name: "land.stepcell_ns", Unit: "ns", Better: lower},

	{Name: "grid.mesh_build_ms", Unit: "ms", Better: lower},
	{Name: "grid.decomp_build_ms", Unit: "ms", Better: lower},
	{Name: "grid.icos_halo_us", Unit: "us", Better: lower},
	{Name: "grid.tri_halo_us", Unit: "us", Better: lower},
	{Name: "grid.icos_halo_msgs_per_op", Unit: "count", Better: lower},
	{Name: "grid.icos_halo_bytes_per_op", Unit: "B", Better: lower},
	{Name: "grid.tri_halo_msgs_per_op", Unit: "count", Better: lower},
	{Name: "grid.tri_halo_bytes_per_op", Unit: "B", Better: lower},
	{Name: "grid.icos_halo_msgs_per_op_r8", Unit: "count", Better: lower},
	{Name: "grid.icos_halo_bytes_per_op_r8", Unit: "B", Better: lower},
	{Name: "grid.tri_halo_msgs_per_op_r8", Unit: "count", Better: lower},
	{Name: "grid.tri_halo_bytes_per_op_r8", Unit: "B", Better: lower},

	{Name: "par.pingpong_1k_us", Unit: "us", Better: lower},
	{Name: "par.pingpong_64k_us", Unit: "us", Better: lower},
	{Name: "par.barrier_us", Unit: "us", Better: lower},
	{Name: "par.allreduce16_us", Unit: "us", Better: lower},
	{Name: "par.p2p_msgs_per_op", Unit: "count", Better: lower},
	{Name: "par.p2p_bytes_per_op", Unit: "B", Better: lower},
	{Name: "par.coll_per_op", Unit: "count", Better: lower},

	{Name: "coupler.rearrange_us", Unit: "us", Better: lower},
	{Name: "coupler.rearrange_msgs_per_call", Unit: "count", Better: lower},
	{Name: "coupler.router_build_ms", Unit: "ms", Better: lower},

	{Name: "pp.launch_ns", Unit: "ns", Better: lower},
	{Name: "pp.launches_per_op", Unit: "count", Better: lower},
	{Name: "precision.encode_ns_per_val", Unit: "ns", Better: lower},
	{Name: "precision.decode_ns_per_val", Unit: "ns", Better: lower},
	{Name: "pario.write_mb_s", Unit: "MB/s", Better: higher},
	{Name: "pario.read_mb_s", Unit: "MB/s", Better: higher},
	{Name: "fault.point_disarmed_ns", Unit: "ns", Better: lower},
	{Name: "obs.span_ns", Unit: "ns", Better: lower},
	{Name: "obs.overhead_frac", Unit: "frac", Better: lower},

	{Name: "statestore.point_us", Unit: "us", Better: lower},
	{Name: "statestore.point_http_us", Unit: "us", Better: lower},
	{Name: "statestore.http_shim_frac", Unit: "frac", Better: lower},
	{Name: "statestore.pointseries_us", Unit: "us", Better: lower},
	{Name: "statestore.region_us", Unit: "us", Better: lower},
	{Name: "statestore.analog_ms", Unit: "ms", Better: lower},
	{Name: "statestore.diag_us", Unit: "us", Better: lower},
	{Name: "statestore.meta_us", Unit: "us", Better: lower},
	{Name: "statestore.decode_miss_us", Unit: "us", Better: lower},
	{Name: "statestore.decode_hit_ns", Unit: "ns", Better: lower},
	{Name: "statestore.cache_hit_frac", Unit: "frac", Better: higher},
	{Name: "statestore.append_us", Unit: "us", Better: lower},
	{Name: "statestore.bytes_per_snapshot", Unit: "B", Better: lower},

	{Name: "harness.ops_per_s", Unit: "1/s", Better: higher},
	{Name: "harness.op_ms_p10", Unit: "ms", Better: lower},
	{Name: "harness.op_ms_p50", Unit: "ms", Better: lower},
	{Name: "harness.op_ms_p90", Unit: "ms", Better: lower},
	{Name: "harness.op_ms_max", Unit: "ms", Better: lower},
	{Name: "harness.setup_s_median", Unit: "s", Better: lower},
	{Name: "harness.trace_overhead_frac", Unit: "frac", Better: lower},
	{Name: "harness.loadavg_start", Unit: "load", Better: lower},
	{Name: "harness.loadavg_end", Unit: "load", Better: lower},
}
