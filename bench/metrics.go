package main

// metricDef describes one named metric; BENCHMARK.json carries the same
// names, units, directions and bounds, and the README the Moves column.
type metricDef struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
	// Bound is the share of the median an end-to-end metric may worsen by
	// before a change counts as a regression (end-to-end metrics only).
	Bound float64
	// Moves says which end-to-end metric on which workload a per-layer
	// metric is expected to move.
	Moves string
}

// endToEnd are the metrics a user of the system sees; every workload
// reports all of them.
var endToEnd = []metricDef{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "ops_per_s", Unit: "1/s", Better: "higher", Bound: 0.25},
	{Name: "p50_us", Unit: "us", Better: "lower", Bound: 0.25},
	{Name: "p95_us", Unit: "us", Better: "lower", Bound: 0.25},
	{Name: "cpu_us_per_op", Unit: "us", Better: "lower", Bound: 0.25},
	{Name: "rss_mb", Unit: "MB", Better: "lower", Bound: 0.25},
}

const (
	movesShard  = "ask_hot, ask_wide: p50_us, cpu_us_per_op; none elsewhere"
	movesServer = "ask_hot: ops_per_s, cpu_us_per_op; <5% of an ask_wide op"
	movesMiss   = "ask_wide: p50_us, ops_per_s; none on ask_hot"
	movesLib    = "lib_ask: ops_per_s; <1% of ask_hot"
	movesQuery  = "answers: p50_us (uniform), p95_us (non-uniform)"
	movesWrite  = "write_mix: ops_per_s, p95_us, cpu_us_per_op; setup_s on HTTP workloads"
	movesClient = "generator cost; client.cpu_share above 0.5 means the generator is the bottleneck"
)

// perLayer are the metrics of single layers (layer = package name;
// loopback = net/http over 127.0.0.1, client = the load generator). The
// first group is read from outside the daemons around an untraced timed
// phase, the second comes from the traced in-process run.
var perLayer = []metricDef{
	{Name: "server.cpu_us_per_op", Unit: "us", Better: "lower", Moves: movesServer},
	{Name: "shard.cpu_us_per_op", Unit: "us", Better: "lower", Moves: movesShard},
	{Name: "client.cpu_us_per_op", Unit: "us", Better: "lower", Moves: movesClient},
	{Name: "client.cpu_share", Unit: "ratio", Better: "lower", Moves: movesClient},
	{Name: "client.machine_speed", Unit: "ratio", Better: "higher", Moves: "none: the sandbox's speed relative to the reference machine; every duration is scaled by it"},
	{Name: "client.p99_us", Unit: "us", Better: "lower", Moves: "the tail beyond p95_us; unbounded because it sits on the scheduler-preemption knee and flips by 40% for minutes at a time"},
	{Name: "server.rss_mb", Unit: "MB", Better: "lower", Moves: "every HTTP workload: rss_mb"},
	{Name: "shard.rss_mb", Unit: "MB", Better: "lower", Moves: "ask_hot, ask_wide: rss_mb"},
	{Name: "server.cache_hit_ratio", Unit: "ratio", Better: "higher", Moves: movesServer},
	{Name: "core.plan_misses_per_op", Unit: "count", Better: "lower", Moves: movesMiss},
	{Name: "core.plan_lookups_per_op", Unit: "count", Better: "lower", Moves: movesMiss},
	{Name: "server.handler_us_mean", Unit: "us", Better: "lower", Moves: "every HTTP workload: p50_us"},
	{Name: "shard.proxy_us_mean", Unit: "us", Better: "lower", Moves: movesShard},
	{Name: "engine.algoq_steps_per_op", Unit: "count", Better: "lower", Moves: movesWrite},
	{Name: "engine.rule_firings_per_op", Unit: "count", Better: "lower", Moves: movesWrite},
	{Name: "engine.terms_interned_per_op", Unit: "count", Better: "lower", Moves: movesMiss},
	{Name: "engine.fixpoint_rounds_per_op", Unit: "count", Better: "lower", Moves: movesWrite},
	{Name: "store.wal_bytes_per_write", Unit: "B", Better: "lower", Moves: movesWrite},
	{Name: "watch.delta_p50_ms", Unit: "ms", Better: "lower", Moves: movesWrite},
	{Name: "watch.delivered_ratio", Unit: "ratio", Better: "higher", Moves: "write_mix: failed ops (must stay 1)"},
	{Name: "answers.uniform_p50_us", Unit: "us", Better: "lower", Moves: movesQuery},
	{Name: "answers.nonuniform_p50_us", Unit: "us", Better: "lower", Moves: movesQuery},
	{Name: "write_mix.put_p50_us", Unit: "us", Better: "lower", Moves: movesWrite},
	{Name: "write_mix.facts_p50_us", Unit: "us", Better: "lower", Moves: movesWrite},
	{Name: "write_mix.read_p50_us", Unit: "us", Better: "lower", Moves: "write_mix: p50_us"},

	{Name: "specgraph.walk_ns", Unit: "ns", Better: "lower", Moves: movesLib},
	{Name: "core.plan_ask_ns", Unit: "ns", Better: "lower", Moves: movesLib},
	{Name: "core.text_hit_ns", Unit: "ns", Better: "lower", Moves: movesLib},
	{Name: "core.text_hit_allocs", Unit: "count", Better: "lower", Moves: movesLib},
	{Name: "parser.query_parse_us", Unit: "us", Better: "lower", Moves: movesMiss},
	{Name: "core.prepare_miss_us", Unit: "us", Better: "lower", Moves: movesMiss},
	{Name: "core.prepare_miss_allocs", Unit: "count", Better: "lower", Moves: movesMiss},
	{Name: "registry.entry_ask_ns", Unit: "ns", Better: "lower", Moves: movesServer},
	{Name: "server.ask_hit_us", Unit: "us", Better: "lower", Moves: movesServer},
	{Name: "server.ask_miss_us", Unit: "us", Better: "lower", Moves: movesServer},
	{Name: "server.ask_hit_allocs", Unit: "count", Better: "lower", Moves: movesServer},
	{Name: "server.ask_hit_bytes", Unit: "B", Better: "lower", Moves: movesServer},
	{Name: "loopback.ask_us", Unit: "us", Better: "lower", Moves: movesServer},
	{Name: "loopback.ask_allocs", Unit: "count", Better: "lower", Moves: movesServer},
	{Name: "loopback.conns_per_kop", Unit: "count", Better: "lower", Moves: movesServer},
	{Name: "shard.route_ask_us", Unit: "us", Better: "lower", Moves: movesShard},
	{Name: "shard.ask_allocs", Unit: "count", Better: "lower", Moves: movesShard},
	{Name: "shard.backend_conns_per_kop", Unit: "count", Better: "lower", Moves: movesShard},
	{Name: "server.ask_self_us", Unit: "us", Better: "lower", Moves: movesServer},
	{Name: "loopback.ask_self_us", Unit: "us", Better: "lower", Moves: movesServer},
	{Name: "shard.ask_self_us", Unit: "us", Better: "lower", Moves: movesShard},
	{Name: "query.incremental_us", Unit: "us", Better: "lower", Moves: movesQuery},
	{Name: "query.recompute_us", Unit: "us", Better: "lower", Moves: movesQuery},
	{Name: "query.enumerate_us", Unit: "us", Better: "lower", Moves: movesQuery},
	{Name: "query.answers_allocs", Unit: "count", Better: "lower", Moves: movesQuery},
	{Name: "registry.answers_render_us", Unit: "us", Better: "lower", Moves: movesQuery},
	{Name: "server.answers_us", Unit: "us", Better: "lower", Moves: movesQuery},
	{Name: "core.open_us", Unit: "us", Better: "lower", Moves: movesWrite},
	{Name: "engine.solve_us", Unit: "us", Better: "lower", Moves: movesWrite},
	{Name: "specgraph.build_us", Unit: "us", Better: "lower", Moves: movesWrite},
	{Name: "minimize.minimize_us", Unit: "us", Better: "lower", Moves: movesWrite},
	{Name: "core.snapshot_publish_us", Unit: "us", Better: "lower", Moves: movesWrite},
	{Name: "core.extend_us", Unit: "us", Better: "lower", Moves: movesWrite},
	{Name: "core.extend_recompile_us", Unit: "us", Better: "lower", Moves: movesWrite},
	{Name: "registry.extend_facts_us", Unit: "us", Better: "lower", Moves: movesWrite},
	{Name: "store.append_self_us", Unit: "us", Better: "lower", Moves: movesWrite},
	{Name: "trace.overhead_share", Unit: "ratio", Better: "lower", Moves: "none: cost of recording spans in the traced run"},
}
