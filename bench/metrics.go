package main

// metricDef names one number the benchmark reports. The lists below are
// the single definition of every name, unit and bound: BENCHMARK.json
// repeats them (TestBenchmarkJSONMatchesRegistry keeps the two equal) and
// every later performance claim uses these names.
type metricDef struct {
	Name   string
	Unit   string
	Better string  // "lower" | "higher"
	Bound  float64 // end-to-end only: share of the parent's median it may worsen by
}

// endToEnd are the metrics a user of the server would see. They are
// measured over HTTP against a real serverd with tracing off, and every
// workload reports every one of them. Every bound is 25%, the most the
// driver's contract allows: between quiet stretches, in which runs of one
// commit spread by 3–11%, the 2-CPU sandbox's host slows everything by
// 15–20% for minutes at a time, and a bound inside that band rejects good
// changes at random. See README.md for why the other candidates of issue 11
// are reported per layer instead.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"ops_s", "1/s", "higher", 0.25},
	{"p50_ms", "ms", "lower", 0.25},
	{"cpu_ms_per_op", "ms", "lower", 0.25},
	{"rss_mb", "MB", "lower", 0.25},
}

// perLayer are the single-layer metrics (and the end-to-end candidates
// that cannot carry a bound). A metric that does not apply to a workload
// reads 0 there.
var perLayer = []metricDef{
	// End-to-end candidates without a bound: always zero on the seed (a
	// bound is a share of the parent's median), measured on one workload
	// only, or a tail whose spread between runs of one commit exceeds 10%.
	{Name: "fail_ratio", Unit: "ratio", Better: "lower"},
	{Name: "p95_ms", Unit: "ms", Better: "lower"},
	{Name: "p99_ms", Unit: "ms", Better: "lower"},
	{Name: "ingest_triples_s", Unit: "1/s", Better: "higher"},
	{Name: "ingest_ack_p99_ms", Unit: "ms", Better: "lower"},
	{Name: "recovery_s", Unit: "s", Better: "lower"},
	{Name: "lost_acked_triples", Unit: "count", Better: "lower"},

	{Name: "keywordindex.lookup_us", Unit: "us", Better: "lower"},
	{Name: "keywordindex.matches_per_kw", Unit: "count", Better: "lower"},
	{Name: "keywordindex.lookup_allocs", Unit: "count", Better: "lower"},

	{Name: "summary.augment_us", Unit: "us", Better: "lower"},
	{Name: "summary.augment_allocs", Unit: "count", Better: "lower"},
	{Name: "summary.seeds_per_query", Unit: "count", Better: "lower"},
	{Name: "summary.aug_elems", Unit: "count", Better: "lower"},

	{Name: "core.oracle_build_us", Unit: "us", Better: "lower"},
	{Name: "core.explore_us", Unit: "us", Better: "lower"},
	{Name: "core.cursors_created", Unit: "count", Better: "lower"},
	{Name: "core.cursors_popped", Unit: "count", Better: "lower"},
	{Name: "core.pops_per_subgraph", Unit: "ratio", Better: "lower"},
	{Name: "core.explore_allocs", Unit: "count", Better: "lower"},

	{Name: "query.map_us", Unit: "us", Better: "lower"},
	{Name: "query.dup_ratio", Unit: "ratio", Better: "lower"},

	{Name: "exec.plan_us", Unit: "us", Better: "lower"},
	{Name: "exec.join_us", Unit: "us", Better: "lower"},
	{Name: "exec.join_iterations", Unit: "count", Better: "lower"},
	{Name: "exec.examined_per_row", Unit: "ratio", Better: "lower"},
	{Name: "exec.allocs_per_row", Unit: "ratio", Better: "lower"},
	{Name: "store.range_ns", Unit: "ns", Better: "lower"},

	{Name: "engine.search_us", Unit: "us", Better: "lower"},
	{Name: "engine.unattributed_us", Unit: "us", Better: "lower"},
	{Name: "engine.replay_ratio", Unit: "ratio", Better: "lower"},

	{Name: "server.overhead_us", Unit: "us", Better: "lower"},
	{Name: "server.cache_hit_ratio", Unit: "ratio", Better: "higher"},
	{Name: "server.bytes_out_per_op", Unit: "B", Better: "lower"},
	{Name: "server.singleflight_shared", Unit: "count", Better: "higher"},
	{Name: "server.rejected", Unit: "count", Better: "lower"},
	{Name: "server.timeouts", Unit: "count", Better: "lower"},
	{Name: "server.p99_closed_ms", Unit: "ms", Better: "lower"},

	{Name: "ingest.swaps", Unit: "count", Better: "lower"},
	{Name: "ingest.swap_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "ingest.swap_ms_max", Unit: "ms", Better: "lower"},
	{Name: "ingest.ack_max_ms", Unit: "ms", Better: "lower"},
	{Name: "ingest.fsync_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "ingest.wal_bytes_per_user_byte", Unit: "ratio", Better: "lower"},
	{Name: "ingest.cache_invalidated", Unit: "count", Better: "lower"},
	{Name: "ingest.replayed_batches", Unit: "count", Better: "lower"},

	{Name: "shard.search_us", Unit: "us", Better: "lower"},
	{Name: "shard.search_ratio", Unit: "ratio", Better: "lower"},
	{Name: "shard.execute_ratio", Unit: "ratio", Better: "lower"},

	{Name: "snapshot.build_s", Unit: "s", Better: "lower"},
	{Name: "snapshot.boot_ms", Unit: "ms", Better: "lower"},
	{Name: "snapshot.bytes_per_triple", Unit: "B", Better: "lower"},

	{Name: "loadgen.late_ratio", Unit: "ratio", Better: "lower"},
	{Name: "loadgen.samples", Unit: "count", Better: "higher"},
}

// metric is one reported value, in the shape the driver reads.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metricSet collects values by name and renders the defined subset.
type metricSet map[string]float64

// render returns every metric of defs with its unit, 0 for one the run
// did not produce (a layer the workload bypasses).
func (m metricSet) render(defs []metricDef) map[string]metric {
	out := make(map[string]metric, len(defs))
	for _, d := range defs {
		out[d.Name] = metric{Value: m[d.Name], Unit: d.Unit}
	}
	return out
}
