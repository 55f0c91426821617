package main

// The metric sets this program emits. BENCHMARK.json declares the same
// names; TestDeclaredMetricsMatchBenchmarkJSON keeps the two equal.

type decl struct{ name, unit string }

// endToEnd is what a user of the system sees, on every workload.
var endToEnd = []decl{
	{"setup_s", "s"}, {"op_ms_p50", "ms"}, {"ops_per_s", "1/s"}, {"alloc_kb_per_op", "KB"}, {"peak_rss_mb", "MB"},
}

// perLayer is every per-layer metric, layer = package name. A --trace 1
// run prints all of them; one that the workload does not exercise
// reads 0.
var perLayer = buildPerLayer()

func buildPerLayer() []decl {
	var out []decl
	for _, s := range corpusSet {
		p := s.prog
		out = append(out,
			decl{"interp.run_ms." + p, "ms"}, decl{"interp.ns_per_eq." + p, "ns"},
			decl{"interp.speedup_vs_seq." + p, "ratio"}, decl{"sched.doacross_share." + p, "ratio"},
			decl{"value.alloc_kb." + p, "KB"}, decl{"obs.compute_ms." + p, "ms"},
			decl{"obs.sync_ms." + p, "ms"}, decl{"obs.trace_overhead." + p, "ratio"})
	}
	for _, s := range smallSet {
		out = append(out, decl{"interp.activation_us." + s.prog, "us"})
	}
	return append(out,
		// Exact work counts per op, from RunStats.
		decl{"interp.eq_instances_per_op", "count"}, decl{"interp.doall_chunks_per_op", "count"},
		decl{"interp.specialized_ratio", "ratio"}, decl{"sched.planes_per_op", "count"},
		decl{"sched.tiles_per_op", "count"}, decl{"sched.doacross_stalls_per_op", "count"},
		decl{"pipe.stages_per_op", "count"}, decl{"pipe.stage_stalls_per_op", "count"},
		decl{"value.arena_reuses_per_op", "count"}, decl{"value.allocs_per_op", "count"},
		// Work and synchronisation from the program's own TimingBreakdown.
		decl{"obs.efficiency", "ratio"}, decl{"obs.idle_ms_per_op", "ms"}, decl{"obs.accounted_ratio", "ratio"},
		decl{"interp.sweep_ms_w1", "ms"}, decl{"interp.scaling_eff", "ratio"},
		decl{"interp.par_over_seq_small", "ratio"},
		decl{"ps.run_batch32_us", "us"}, decl{"ps.run_x32_us", "us"}, decl{"ps.batch_gain", "ratio"},
		// The front end, summed over the workload's programs.
		decl{"lexer.scan_us", "us"}, decl{"lexer.tokens", "count"}, decl{"parser.parse_us", "us"},
		decl{"sem.check_us", "us"}, decl{"depgraph.build_us", "us"}, decl{"core.schedule_us", "us"},
		decl{"plan.lower_base_us", "us"}, decl{"plan.lower_all6_us", "us"}, decl{"plan.steps", "count"},
		decl{"plan.wavefront_nests", "count"}, decl{"plan.pipeline_nests", "count"},
		decl{"plan.sequential_nests", "count"},
		decl{"interp.compile_us", "us"}, decl{"interp.kernel_compile_us", "us"}, decl{"interp.compiled_kb", "KB"},
		decl{"cgen.generate_us", "us"}, decl{"cgen.c_bytes", "count"},
		// The cold path through the public API, summed over the programs.
		decl{"ps.engine_new_us", "us"}, decl{"ps.compile_us", "us"}, decl{"ps.compile_hit_us", "us"},
		decl{"ps.prepare_us", "us"}, decl{"ps.args_from_json_us", "us"}, decl{"ps.first_run_us", "us"},
		decl{"ps.results_to_json_us", "us"},
		decl{"cmd.psrun_wall_ms", "ms"}, decl{"cmd.psrun_maxrss_mb", "MB"}, decl{"cmd.process_overhead_ms", "ms"},
		// The serving shell.
		decl{"serve.http_ms_p90", "ms"}, decl{"serve.http_ms_p99", "ms"}, decl{"serve.server_ms_mean", "ms"},
		decl{"serve.execute_ms_per_batch", "ms"}, decl{"serve.mean_batch", "count"},
		decl{"serve.rejected", "count"}, decl{"serve.run_errors", "count"}, decl{"serve.overhead_ms", "ms"},
		decl{"serve.closed_loop_rps", "1/s"},
		decl{"ps.args_from_json_us.smooth", "us"}, decl{"ps.results_to_json_us.smooth", "us"},
		decl{"harness.send_lag_ms_p99", "ms"}, decl{"harness.client_json_us", "us"},
		// The measurement itself.
		decl{"harness.samples", "count"}, decl{"harness.rounds", "count"},
		decl{"harness.op_ms_p90", "ms"}, decl{"harness.op_ms_p99", "ms"}, decl{"harness.op_ms_iqr", "ms"},
		decl{"harness.verified_ops", "count"}, decl{"harness.trace_overhead", "ratio"},
		decl{"harness.span_coverage", "ratio"},
		// The host while it ran: covariates, not results.
		decl{"harness.host_cpu_pressure", "ratio"}, decl{"harness.host_pingpong_us", "us"},
	)
}

func declared(name string) bool {
	for _, d := range perLayer {
		if d.name == name {
			return true
		}
	}
	return false
}
