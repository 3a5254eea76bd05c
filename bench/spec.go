package main

// metricDef describes one reported metric. A bound is the share of the
// parent's median by which an end-to-end metric may worsen before a change
// counts as a regression: Bounds per workload, Bound for all of them at once;
// per-layer metrics have none. Moves names the end-to-end metric, and the
// workload, a per-layer metric is expected to move; it is written down before
// measuring (see README.md).
type metricDef struct {
	Name   string
	Unit   string
	Better string
	Bound  float64
	Bounds bounds
	Moves  string
}

const numWorkloads = 4

// workloadDef is one benchmark workload and the reason it exists. heapAt is
// the number of rounds (generations, steps per client) into the timed phase
// at which live_heap_mib is read.
type workloadDef struct {
	Name   string
	Why    string
	heapAt int
	new    func(cfg runConfig, t *tracer) (env, error)
}

var workloads = [numWorkloads]workloadDef{
	{"ctrl_storm", "control plane only: tenant routing+auth, JSON check-ins over a 200k-device registry, tiny model-A rounds (sync+async); codec/aggregator idle", ctrlHeapAt, newCtrlEnv},
	{"bulk_rounds", "data plane only: 190 KB q8 updates parsed, fused FedAvg commit, f32/q8/topk broadcast and delta serving on model B; registry idle", roundHeapAt, newBulkEnv},
	{"defended_rounds", "same layers, robust path: norm screen + trimmed mean (column gather, quickselect) + DP clip/noise with 3 of 16 updates poisoned", roundHeapAt, newDefendedEnv},
	{"shard_tier", "4 coord shards behind the gateway: ring routing, streaming proxy, raw64 partial exchange, leader fold barrier and installs", tierHeapAt, newTierEnv},
}

func findWorkload(name string) *workloadDef {
	for i := range workloads {
		if workloads[i].Name == name {
			return &workloads[i]
		}
	}
	return nil
}

const (
	lower  = "lower"
	higher = "higher"
)

// bounds lists a metric's regression bound per workload, in the order of
// workloads: twice the widest quartile spread that (metric, workload) pair
// showed over the sets of ten runs in README.md, rounded up to a multiple of
// 0.05 (byte ratios: of 0.01), from 0.05 (0.01) to 0.25.
type bounds = [numWorkloads]float64

// endToEnd is what a fleet's operator sees, plus a device's network cost;
// the same names are reported on every workload, from the untraced run only.
// Bound, the one bound BENCHMARK.json can hold, is three times the widest
// spread of any workload (the driver wants a spread under a third of it),
// rounded and capped the same way; bench -compare applies Bounds.
var endToEnd = []metricDef{
	{Name: "setup_s", Unit: "s", Better: lower, Bound: 0.25, Bounds: bounds{0.25, 0.25, 0.25, 0.25}},
	{Name: "requests_per_s", Unit: "1/s", Better: higher, Bound: 0.25, Bounds: bounds{0.20, 0.25, 0.25, 0.25}},
	{Name: "updates_per_s", Unit: "1/s", Better: higher, Bound: 0.25, Bounds: bounds{0.20, 0.25, 0.25, 0.25}},
	{Name: "round_p50_ms", Unit: "ms", Better: lower, Bound: 0.25, Bounds: bounds{0.20, 0.25, 0.25, 0.25}},
	{Name: "down_bytes_per_update", Unit: "bytes", Better: lower, Bound: 0.03, Bounds: bounds{0.02, 0.01, 0.01, 0.01}},
	{Name: "up_bytes_per_update", Unit: "bytes", Better: lower, Bound: 0.03, Bounds: bounds{0.02, 0.01, 0.01, 0.01}},
	{Name: "live_heap_mib", Unit: "MiB", Better: lower, Bound: 0.20, Bounds: bounds{0.05, 0.05, 0.05, 0.15}},
}

// perLayer is reported by the traced run only. Layers are this repository's
// packages. A metric whose layer does not run on a workload reads 0 there.
// Where Moves names a per-layer latency (http.*_p50_ms, coord.commit_p50_ms),
// the end-to-end metrics behind it are that latency's own: requests_per_s,
// updates_per_s and round_p50_ms.
var perLayer = []metricDef{
	// net/http + loopback: client span minus outermost handler span.
	{Name: "http.checkin_overhead_us", Unit: "us", Better: lower, Moves: "http.checkin_p50_ms, requests_per_s on ctrl_storm; small share on bulk_rounds"},
	{Name: "http.task_overhead_us", Unit: "us", Better: lower, Moves: "http.task_p50_ms, requests_per_s on ctrl_storm"},
	{Name: "http.update_overhead_us", Unit: "us", Better: lower, Moves: "http.update_p50_ms on ctrl_storm; small share on bulk_rounds"},
	// Latencies that cannot hold a bound on every workload (README.md has
	// the spreads and drifts) are kept here, unbounded, rather than shipped as
	// flapping gates: the request latencies and, under coord, the round tail
	// and the commit.
	{Name: "http.checkin_p50_ms", Unit: "ms", Better: lower, Moves: "requests_per_s; no bound"},
	{Name: "http.task_p50_ms", Unit: "ms", Better: lower, Moves: "requests_per_s, round_p50_ms; no bound"},
	{Name: "http.update_p50_ms", Unit: "ms", Better: lower, Moves: "requests_per_s, updates_per_s, round_p50_ms; no bound"},
	{Name: "http.checkin_p99_ms", Unit: "ms", Better: lower, Moves: "check-ins beside commits and census walks; no bound"},
	{Name: "http.task_p99_ms", Unit: "ms", Better: lower, Moves: "task serving beside commits; no bound"},
	{Name: "http.update_p99_ms", Unit: "ms", Better: lower, Moves: "uploads beside commits and collections; no bound"},

	{Name: "tenant.route_us", Unit: "us", Better: lower, Moves: "requests_per_s on ctrl_storm; nothing elsewhere"},
	{Name: "tenant.auth_rejected", Unit: "count", Better: lower, Moves: "equals the scripted probes on ctrl_storm"},

	// coord registry and serving entry points, replayed.
	{Name: "coord.checkin_us", Unit: "us", Better: lower, Moves: "http.checkin_p50_ms, requests_per_s on ctrl_storm"},
	{Name: "coord.checkin_batch_us_per_device", Unit: "us", Better: lower, Moves: "setup_s on ctrl_storm"},
	{Name: "coord.heartbeat_us", Unit: "us", Better: lower, Moves: "requests_per_s on ctrl_storm"},
	{Name: "coord.task_us", Unit: "us", Better: lower, Moves: "http.task_p50_ms on ctrl_storm"},
	{Name: "coord.submit_us", Unit: "us", Better: lower, Moves: "http.update_p50_ms on ctrl_storm"},
	{Name: "coord.task_notask_share", Unit: "ratio", Better: lower, Moves: "updates_per_s on ctrl_storm (wasted polls)"},
	{Name: "coord.registry_bytes_per_device", Unit: "bytes", Better: lower, Moves: "live_heap_mib, setup_s on ctrl_storm"},

	// coord broadcast, ingest and commit, in situ.
	{Name: "coord.task_handler_us", Unit: "us", Better: lower, Moves: "http.task_p50_ms on bulk_rounds, defended_rounds"},
	{Name: "coord.update_handler_us", Unit: "us", Better: lower, Moves: "http.update_p50_ms on bulk_rounds, defended_rounds"},
	{Name: "coord.round_p95_ms", Unit: "ms", Better: lower, Moves: "the round tail (rounds that wait for a collection, a census walk or a straggling shard); no bound"},
	{Name: "coord.commit_p50_ms", Unit: "ms", Better: lower, Moves: "round_p50_ms, updates_per_s on bulk_rounds, defended_rounds (most of a round there); no bound"},
	{Name: "coord.commit_p95_ms", Unit: "ms", Better: lower, Moves: "the commit tail; no bound"},
	{Name: "coord.commit_other_ms", Unit: "ms", Better: lower, Moves: "coord.commit_p50_ms minus replayed reduce/encode/store, not below 0"},
	{Name: "coord.task_delta_share", Unit: "ratio", Better: higher, Moves: "down_bytes_per_update on bulk_rounds"},
	{Name: "coord.delta_cache_hit_ratio", Unit: "ratio", Better: higher, Moves: "http.task_p50_ms on bulk_rounds"},
	{Name: "coord.delta_pre_encoded_per_commit", Unit: "count", Better: lower, Moves: "coord.commit_p50_ms on bulk_rounds"},
	{Name: "coord.delta_base_aged_share", Unit: "ratio", Better: lower, Moves: "down_bytes_per_update on bulk_rounds"},
	{Name: "coord.update_shed", Unit: "count", Better: lower, Moves: "failed share everywhere"},
	{Name: "coord.update_rejected_late", Unit: "count", Better: lower, Moves: "updates_per_s on ctrl_storm"},
	{Name: "coord.rounds_abandoned", Unit: "count", Better: lower, Moves: "failed share everywhere"},

	{Name: "transport.negotiate_ns", Unit: "ns", Better: lower, Moves: "http.checkin_p50_ms on ctrl_storm"},
	{Name: "transport.cohort_lowbw_share", Unit: "ratio", Better: lower, Moves: "down_bytes_per_update on bulk_rounds"},
	{Name: "transport.fallback_f32", Unit: "count", Better: lower, Moves: "down_bytes_per_update"},

	{Name: "sched.samples_ms", Unit: "ms", Better: lower, Moves: "http.checkin_p99_ms on ctrl_storm (background stall)"},
	{Name: "sched.rebuild_ms", Unit: "ms", Better: lower, Moves: "http.checkin_p99_ms, requests_per_s on ctrl_storm"},
	{Name: "sched.admit_ns", Unit: "ns", Better: lower, Moves: "http.task_p50_ms on ctrl_storm"},
	{Name: "sched.rebuilds", Unit: "count", Better: lower, Moves: "requests_per_s on ctrl_storm"},
	{Name: "sched.task_denied_deadline", Unit: "count", Better: lower, Moves: "updates_per_s"},

	// codec kernels on model B, replayed.
	{Name: "codec.payload_parse_us", Unit: "us", Better: lower, Moves: "http.update_p50_ms, updates_per_s on bulk_rounds, shard_tier"},
	{Name: "codec.add_scaled_ns_per_kelem", Unit: "ns", Better: lower, Moves: "coord.commit_p50_ms on bulk_rounds"},
	{Name: "codec.copy_range_ns_per_kelem", Unit: "ns", Better: lower, Moves: "coord.commit_p50_ms on defended_rounds only"},
	{Name: "codec.norm2_us", Unit: "us", Better: lower, Moves: "coord.commit_p50_ms on defended_rounds only"},
	{Name: "codec.encode_f32_ms", Unit: "ms", Better: lower, Moves: "coord.commit_p50_ms on bulk_rounds"},
	{Name: "codec.encode_q8_delta_ms", Unit: "ms", Better: lower, Moves: "coord.commit_p50_ms on bulk_rounds"},
	{Name: "codec.encode_topk_delta_ms", Unit: "ms", Better: lower, Moves: "coord.commit_p50_ms on bulk_rounds"},
	{Name: "codec.encode_raw64_ms", Unit: "ms", Better: lower, Moves: "round_p50_ms on shard_tier"},
	{Name: "codec.broadcast_build_ms", Unit: "ms", Better: lower, Moves: "coord.commit_p50_ms on bulk_rounds, defended_rounds: the full blob plus every pre-encoded delta frame, laid out as coord does"},
	{Name: "codec.bytes_q8_update", Unit: "bytes", Better: lower, Moves: "up_bytes_per_update"},
	{Name: "codec.bytes_f32_full", Unit: "bytes", Better: lower, Moves: "down_bytes_per_update"},
	{Name: "codec.bytes_q8_delta", Unit: "bytes", Better: lower, Moves: "down_bytes_per_update"},
	{Name: "codec.bytes_topk_delta", Unit: "bytes", Better: lower, Moves: "down_bytes_per_update"},

	// aggregator reducers over the round's own payloads, replayed.
	{Name: "aggregator.fedavg_reduce_ms", Unit: "ms", Better: lower, Moves: "coord.commit_p50_ms, round_p50_ms on bulk_rounds"},
	{Name: "aggregator.fedbuff_reduce_us", Unit: "us", Better: lower, Moves: "coord.commit_p50_ms on ctrl_storm (async job); ~0 share"},
	{Name: "aggregator.trimmed_reduce_ms", Unit: "ms", Better: lower, Moves: "coord.commit_p50_ms on defended_rounds only"},
	{Name: "aggregator.screen_ms", Unit: "ms", Better: lower, Moves: "coord.commit_p50_ms on defended_rounds only"},
	{Name: "aggregator.screened_per_round", Unit: "count", Better: lower, Moves: "equals the scripted poison on defended_rounds"},
	{Name: "aggregator.reduce_gb_per_s", Unit: "GB/s", Better: higher, Moves: "computed bytes over time, not measured bandwidth"},
	{Name: "aggregator.codec_commit_share", Unit: "ratio", Better: lower, Moves: "replayed aggregator+codec time over coord.commit_p50_ms, not above 1: the share a faster kernel can save"},

	{Name: "modelstore.put_ms", Unit: "ms", Better: lower, Moves: "coord.commit_p50_ms on bulk_rounds"},
	{Name: "modelstore.publish_pending_max", Unit: "count", Better: lower, Moves: "live_heap_mib"},

	// shard tier; all 0 except on shard_tier.
	{Name: "shard.ring_lookup_ns", Unit: "ns", Better: lower, Moves: "task/http.update_p50_ms on shard_tier"},
	{Name: "shard.gateway_checkin_self_us", Unit: "us", Better: lower, Moves: "http.checkin_p50_ms on shard_tier"},
	{Name: "shard.gateway_task_self_us", Unit: "us", Better: lower, Moves: "http.task_p50_ms on shard_tier"},
	{Name: "shard.gateway_update_self_us", Unit: "us", Better: lower, Moves: "http.update_p50_ms on shard_tier"},
	{Name: "shard.exchange_ms", Unit: "ms", Better: lower, Moves: "coord.commit_p50_ms, round_p50_ms on shard_tier"},
	{Name: "shard.leader_fold_ms", Unit: "ms", Better: lower, Moves: "coord.commit_p50_ms on shard_tier"},
	{Name: "shard.fold_wait_ms", Unit: "ms", Better: lower, Moves: "round_p50_ms on shard_tier; bounds what pipelining can recover"},
	{Name: "shard.partial_wire_bytes_per_fold", Unit: "bytes", Better: lower, Moves: "coord.commit_p50_ms on shard_tier"},
	{Name: "shard.tier_folds", Unit: "count", Better: higher, Moves: "equals generations on shard_tier"},
	{Name: "shard.exchange_retries", Unit: "count", Better: lower, Moves: "coord.round_p95_ms on shard_tier"},
	{Name: "shard.install_noop_share", Unit: "ratio", Better: lower, Moves: "round_p50_ms on shard_tier"},

	// The process as a whole, and the load generator itself.
	{Name: "process.cpu_ms_per_update", Unit: "ms", Better: lower, Moves: "updates_per_s under load, every workload"},
	{Name: "process.alloc_kib_per_update", Unit: "KiB", Better: lower, Moves: "updates_per_s, live_heap_mib"},
	{Name: "process.gc_pause_ms_total", Unit: "ms", Better: lower, Moves: "http.update_p99_ms"},
	{Name: "process.gc_cycles", Unit: "count", Better: lower, Moves: "http.update_p99_ms"},
	{Name: "gen.self_share", Unit: "ratio", Better: lower, Moves: "above 0.15 the numbers measure the generator"},
	{Name: "trace.overhead_share", Unit: "ratio", Better: lower, Moves: "traced vs untraced requests_per_s"},
	{Name: "trace.nest_errors", Unit: "count", Better: lower, Moves: "a child span outside its parent; must be 0"},
}
