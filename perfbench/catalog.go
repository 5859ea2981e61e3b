package main

// metric is one catalog entry. End-to-end metrics are what a user of
// the porting tool waits on; layer metrics explain them. Moves names
// the end-to-end metric a layer metric should move and On the workload
// where it moves — the prediction a performance change is judged by.
type metric struct {
	Name, Unit, Better string
	EndToEnd           bool
	Moves, On          string
}

// catalog is every metric the benchmark emits, in output order.
// BENCHMARK.json lists exactly these names, units and directions
// (TestCatalogMatchesBenchmarkJSON). Every workload reports every
// metric: an end-to-end metric is defined per workload in README.md,
// and a layer the workload leaves idle reports 0.
var catalog = []metric{
	{Name: "setup_s", Unit: "s", Better: "lower", EndToEnd: true},
	{Name: "peak_rss_mb", Unit: "MB", Better: "lower", EndToEnd: true},
	{Name: "op_p50_ms", Unit: "ms", Better: "lower", EndToEnd: true},
	{Name: "ops_per_s", Unit: "1/s", Better: "higher", EndToEnd: true},

	{Name: "minic.compile_ms", Unit: "ms", Better: "lower", Moves: "ops_per_s", On: "port-cold"},
	{Name: "minic.lex_ms", Unit: "ms", Better: "lower", Moves: "ops_per_s", On: "port-cold"},
	{Name: "minic.parse_ms", Unit: "ms", Better: "lower", Moves: "ops_per_s", On: "port-cold"},
	{Name: "minic.lower_ms", Unit: "ms", Better: "lower", Moves: "ops_per_s", On: "port-cold"},
	{Name: "minic.verify_ms", Unit: "ms", Better: "lower", Moves: "ops_per_s", On: "port-cold"},

	{Name: "atomig.port_ms", Unit: "ms", Better: "lower", Moves: "ops_per_s", On: "port-cold, serve-edit"},
	{Name: "atomig.analysis_ms", Unit: "ms", Better: "lower", Moves: "ops_per_s", On: "port-cold"},
	{Name: "atomig.alias_ms", Unit: "ms", Better: "lower", Moves: "ops_per_s", On: "port-cold"},
	{Name: "atomig.transform_ms", Unit: "ms", Better: "lower", Moves: "ops_per_s", On: "port-cold"},
	{Name: "atomig.verify_ms", Unit: "ms", Better: "lower", Moves: "ops_per_s", On: "port-cold"},
	{Name: "atomig.spinloops", Unit: "count", Better: "higher", Moves: "ops_per_s", On: "port-cold"},
	{Name: "atomig.sticky_marked", Unit: "count", Better: "lower", Moves: "ops_per_s", On: "port-cold"},
	{Name: "atomig.fences_inserted", Unit: "count", Better: "lower", Moves: "ops_per_s", On: "port-cold"},

	{Name: "ir.emit_ms", Unit: "ms", Better: "lower", Moves: "ops_per_s", On: "port-cold"},
	{Name: "ir.emit_mb", Unit: "MB", Better: "lower", Moves: "ops_per_s", On: "port-cold"},

	{Name: "serve.edit_p50_ms", Unit: "ms", Better: "lower", Moves: "op_p50_ms", On: "serve-edit"},
	{Name: "serve.edit_p90_ms", Unit: "ms", Better: "lower", Moves: "op_p50_ms", On: "serve-edit"},
	{Name: "serve.port_p50_ms", Unit: "ms", Better: "lower", Moves: "op_p50_ms", On: "serve-edit"},
	{Name: "serve.port_p90_ms", Unit: "ms", Better: "lower", Moves: "op_p50_ms", On: "serve-edit"},
	{Name: "serve.port_overhead_ms", Unit: "ms", Better: "lower", Moves: "op_p50_ms", On: "serve-edit"},
	{Name: "serve.queue_ms", Unit: "ms", Better: "lower", Moves: "ops_per_s", On: "serve-edit"},
	{Name: "serve.cache_hit_ratio", Unit: "ratio", Better: "higher", Moves: "op_p50_ms", On: "serve-edit"},
	{Name: "serve.cache_lookups", Unit: "count", Better: "higher", Moves: "op_p50_ms", On: "serve-edit"},
	{Name: "serve.shed", Unit: "count", Better: "lower", Moves: "ops_per_s", On: "serve-edit"},

	{Name: "mc.executions", Unit: "count", Better: "lower", Moves: "op_p50_ms", On: "verify-optimize"},
	{Name: "mc.execs_per_s", Unit: "1/s", Better: "higher", Moves: "op_p50_ms", On: "verify-optimize"},
	{Name: "mc.unknown", Unit: "count", Better: "lower", Moves: "op_p50_ms", On: "verify-optimize"},
	{Name: "mc.decided_frac", Unit: "ratio", Better: "higher", Moves: "op_p50_ms", On: "verify-optimize"},

	{Name: "weaken.mc_checks", Unit: "count", Better: "lower", Moves: "op_p50_ms", On: "verify-optimize"},
	{Name: "weaken.tried", Unit: "count", Better: "lower", Moves: "op_p50_ms", On: "verify-optimize"},
	{Name: "weaken.accept_ratio", Unit: "ratio", Better: "higher", Moves: "op_p50_ms", On: "verify-optimize"},
	{Name: "weaken.check_ms", Unit: "ms", Better: "lower", Moves: "op_p50_ms", On: "verify-optimize"},
	{Name: "weaken.code_cost_ratio", Unit: "ratio", Better: "lower", Moves: "op_p50_ms", On: "verify-optimize"},

	{Name: "stress.schedules", Unit: "count", Better: "higher", Moves: "op_p50_ms", On: "verify-optimize"},
	{Name: "stress.steps_per_s", Unit: "1/s", Better: "higher", Moves: "op_p50_ms", On: "verify-optimize"},
	{Name: "stress.step_limited", Unit: "count", Better: "lower", Moves: "op_p50_ms", On: "verify-optimize"},
	{Name: "stress.findings", Unit: "count", Better: "higher", Moves: "op_p50_ms", On: "verify-optimize"},

	{Name: "go.alloc_mb_per_op", Unit: "MB", Better: "lower", Moves: "peak_rss_mb, ops_per_s", On: "all"},
	{Name: "go.gc_cycles", Unit: "count", Better: "lower", Moves: "peak_rss_mb, ops_per_s", On: "all"},
	{Name: "go.gc_pause_ms", Unit: "ms", Better: "lower", Moves: "ops_per_s", On: "all"},

	{Name: "obs.trace_overhead_ratio", Unit: "ratio", Better: "lower", Moves: "none (traced run only)", On: "all"},
}

// metricsFor returns the catalog entries one run emits: the end-to-end
// set untraced, the layer set traced.
func metricsFor(traced bool) []metric {
	var out []metric
	for _, m := range catalog {
		if m.EndToEnd != traced {
			out = append(out, m)
		}
	}
	return out
}
