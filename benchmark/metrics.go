package main

// metricDef names one reported metric and its unit. BENCHMARK.json lists
// the same names, units and directions; TestMetricTablesMatchManifest
// keeps the two in step.
type metricDef struct {
	name, unit   string
	higherBetter bool
}

// endToEnd are the metrics an untraced run reports: what a caller of
// the mapper sees.
var endToEnd = []metricDef{
	{"setup_s", "s", false},
	{"ops_per_s", "1/s", true},
	{"op_p50_ms", "ms", false},
	{"op_p90_ms", "ms", false},
	{"cpu_ms_per_op", "ms", false},
	{"rss_peak_mb", "MB", false},
	{"quality_vs_herald", "x", true},
}

// perLayer are the metrics a traced run reports, one group per module
// of the repository. A time is reported only for work every workload
// does; a layer that some workloads never enter (the router, the HTTP
// facade, the optional fingerprint and bound phases) is reported as a
// share of op or generation time, a count or a ratio, where 0 means
// "not on this workload's path".
var perLayer = []metricDef{
	{"fleet.hop_share", "ratio", false},
	{"fleet.straggler_share", "ratio", false},
	{"fleet.subrequests_per_op", "count", false},
	{"fleet.fanout_ratio", "ratio", false},
	{"fleet.shard_skew", "ratio", false},
	{"fleet.retry_ratio", "ratio", false},

	{"serve.handler_share", "ratio", false},
	{"serve.transport_share", "ratio", false},
	{"serve.decode_share", "ratio", false},
	{"serve.encode_share", "ratio", false},
	{"serve.validate_share", "ratio", false},
	{"serve.request_kb", "KB", false},
	{"serve.response_kb", "KB", false},

	{"engine.cross_hit_rate", "ratio", true},
	{"engine.tables_built_per_op", "count", false},
	{"engine.evictions_per_op", "count", false},
	{"engine.pool_reuse_rate", "ratio", true},
	{"engine.problem_cold_us", "us", false},
	{"engine.problem_warm_us", "us", false},

	{"analyzer.table_us", "us", false},

	{"workload.generate_us", "us", false},

	{"m3e.gen_us", "us", false},
	{"m3e.gens_per_op", "count", false},
	{"m3e.simulate_us", "us", false},
	{"m3e.fingerprint_share", "ratio", false},
	{"m3e.bound_share", "ratio", false},
	{"m3e.hit_rate", "ratio", true},
	{"m3e.fast_fp_rate", "ratio", true},
	{"m3e.bound_prune_rate", "ratio", true},
	{"m3e.sims_per_op", "count", false},
	{"m3e.fp_full_per_op", "count", false},

	{"opt.ask_us", "us", false},
	{"opt.tell_us", "us", false},

	{"encoding.decode_ns", "ns", false},
	{"encoding.fingerprint_ns", "ns", false},

	{"sim.run_ns", "ns", false},
	{"sim.bound_ns", "ns", false},

	{"runtime.alloc_kb_per_op", "KB", false},
	{"runtime.gc_per_op", "count", false},
	{"runtime.gc_cpu_fraction", "ratio", false},
}
