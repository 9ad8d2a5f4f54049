package main

// metricDef is one reported metric. End-to-end metrics are printed by
// untraced runs (--trace 0) and carry the bound by which a change may
// worsen them; per-layer metrics are printed by traced runs (--trace 1).
// BENCHMARK.json lists the same metrics, which a test checks.
type metricDef struct {
	name, unit, better string
	bound              float64 // end-to-end only
}

var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"qps", "ops/s", "higher", 0.25},
	{"read_p50_ms", "ms", "lower", 0.25},
	{"recall", "ratio", "higher", 0.1},
	{"resp_bytes", "bytes", "lower", 0.1},
	{"heap_mb", "MB", "lower", 0.1},
}

var perLayer = []metricDef{
	// End-to-end figures that apply to only some workloads, read 0 on a
	// healthy run, or spread between runs by more than any bound allows.
	{name: "read_p90_ms", unit: "ms", better: "lower"},
	{name: "read_p99_ms", unit: "ms", better: "lower"},
	{name: "write_p50_ms", unit: "ms", better: "lower"},
	{name: "write_p99_ms", unit: "ms", better: "lower"},
	{name: "error_rate", unit: "ratio", better: "lower"},
	{name: "recover_s", unit: "s", better: "lower"},
	{name: "space_amp", unit: "ratio", better: "lower"},

	{name: "serve.queue_wait_p50_us", unit: "us", better: "lower"},
	{name: "serve.queue_wait_p99_us", unit: "us", better: "lower"},
	{name: "serve.batch_size_mean", unit: "count", better: "higher"},
	{name: "serve.handler_p50_us", unit: "us", better: "lower"},
	{name: "serve.self_mean_us", unit: "us", better: "lower"},
	{name: "serve.snapshot_refreshes_per_kop", unit: "count", better: "lower"},
	{name: "serve.cache_hit_rate", unit: "ratio", better: "higher"},
	{name: "serve.shed", unit: "count", better: "lower"},
	{name: "serve.timeouts", unit: "count", better: "lower"},

	{name: "index.probes_per_q", unit: "count", better: "lower"},
	{name: "index.layers_per_shard", unit: "count", better: "lower"},
	{name: "index.candidates_per_q", unit: "count", better: "lower"},
	{name: "index.distinct_per_q", unit: "count", better: "lower"},
	{name: "index.batch_p50_us", unit: "us", better: "lower"},
	{name: "index.query_p50_us", unit: "us", better: "lower"},
	{name: "index.precision", unit: "ratio", better: "higher"},
	{name: "index.snapshot_p99_us", unit: "us", better: "lower"},
	{name: "index.write_p50_us", unit: "us", better: "lower"},
	{name: "index.write_p99_us", unit: "us", better: "lower"},
	{name: "index.freezes_per_kwrite", unit: "count", better: "lower"},
	{name: "index.freeze_build_p99_us", unit: "us", better: "lower"},
	{name: "index.compaction_rows_per_write", unit: "count", better: "lower"},
	{name: "index.compaction_ms", unit: "ms", better: "lower"},
	{name: "index.dead_frac", unit: "ratio", better: "lower"},

	{name: "sphere.hash_evals_per_q", unit: "count", better: "lower"},
	{name: "sphere.hash_us", unit: "us", better: "lower"},

	{name: "durable.fsyncs_per_write", unit: "count", better: "lower"},
	{name: "durable.wal_bytes_per_write", unit: "bytes", better: "lower"},
	{name: "durable.segment_writes_per_kwrite", unit: "count", better: "lower"},
	{name: "durable.manifest_commits_per_kwrite", unit: "count", better: "lower"},
	{name: "durable.recover_replay_ms", unit: "ms", better: "lower"},
	{name: "durable.recover_segments_ms", unit: "ms", better: "lower"},

	{name: "wire.client_p50_us", unit: "us", better: "lower"},
	{name: "wire.req_bytes", unit: "bytes", better: "lower"},
	{name: "gen.late_p99_ms", unit: "ms", better: "lower"},
	{name: "gen.samples_read", unit: "count", better: "higher"},
	{name: "gen.samples_write", unit: "count", better: "higher"},

	// Traced run: self time per operation of each layer's spans, and
	// untraced over traced closed-loop throughput.
	{name: "trace.client_self_us", unit: "us", better: "lower"},
	{name: "trace.serve_self_us", unit: "us", better: "lower"},
	{name: "trace.index_self_us", unit: "us", better: "lower"},
	{name: "trace.sphere_self_us", unit: "us", better: "lower"},
	{name: "trace.durable_self_us", unit: "us", better: "lower"},
	{name: "trace.overhead", unit: "ratio", better: "lower"},
}
