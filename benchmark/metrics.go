package main

// metricDecl declares one metric the harness emits. BENCHMARK.json at the
// root of the repository lists the same names, units, directions and
// bounds; smoke_test.go holds the two lists equal.
type metricDecl struct {
	name   string
	unit   string
	better string  // "higher" or "lower"
	bound  float64 // end-to-end only: share of the parent's median it may worsen by
}

// endToEnd is what a caller of the system sees, measured with tracing off.
// Four choices depart from ISSUE 11; the measurements behind each are in
// README.md, "How steady the numbers are".
//
//   - A bound is also the most a metric may spread between runs of one
//     commit before the benchmark itself is refused, so it has to sit above
//     what the host repeats. The timed metrics of ten runs spread by 3-25 %
//     of their median on the shared VM this was written on, so their bounds
//     are the largest allowed, not 10 %.
//   - success_share is failed_share as its complement: a metric that reads
//     0 on every healthy run cannot carry a relative bound. The gate fails
//     a run on any failed op, so this bound never decides anything.
//   - rss_mb is the resident set at the end of a segment. The process's
//     high-water mark is the layer metric runtime.rss_peak_mb: it is set
//     by one garbage-collection transient and repeats within no bound.
//   - The p99 latency is the layer metric client.latency_p99_us: one list
//     serves all workloads, and on rpc_sequential and cluster_forward the
//     p99 repeats within no bound.
var endToEnd = []metricDecl{
	{"throughput_ops_s", "1/s", "higher", 0.25},
	{"latency_p50_us", "us", "lower", 0.25},
	{"cpu_us_per_op", "us", "lower", 0.25},
	{"allocs_per_op", "count", "lower", 0.05},
	{"rss_mb", "MB", "lower", 0.25},
	{"success_share", "ratio", "higher", 0.001},
	{"setup_s", "s", "lower", 0.25},
}

// perLayer is what single layers do, from the traced run: isolated probes
// (a time per call), counters read from the layers' public Stats surfaces
// at quiescence, and the harness's own spans. A metric of a layer the
// workload does not exercise reads 0.
var perLayer = []metricDecl{
	{"ticket.body_pair_ns", "ns", "lower", 0},
	{"aspects.guard_pair_ns", "ns", "lower", 0},
	{"moderator.admit_pair_ns", "ns", "lower", 0},
	{"moderator.blocks_per_admission", "ratio", "lower", 0},
	{"moderator.optimistic_share", "ratio", "higher", 0},
	{"moderator.optimistic_fallback_share", "ratio", "lower", 0},
	{"moderator.ring_submit_share", "ratio", "higher", 0},
	{"moderator.ring_mean_batch", "count", "higher", 0},
	{"moderator.ring_parks", "count", "lower", 0},
	{"moderator.ring_full_fallbacks", "count", "lower", 0},
	{"moderator.mutex_bypass_share", "ratio", "lower", 0},
	{"moderator.lost", "count", "lower", 0},
	{"waitq.wake_handoff_ns", "ns", "lower", 0},
	{"waitq.waits", "count", "lower", 0},
	{"waitq.notifies", "count", "lower", 0},
	{"waitq.broadcasts", "count", "lower", 0},
	{"waitq.cancels", "count", "lower", 0},
	{"waitq.reblocks_per_wait", "ratio", "lower", 0},
	{"proxy.invoke_pair_ns", "ns", "lower", 0},
	{"proxy.self_pair_ns", "ns", "lower", 0},
	{"proxy.allocs_per_pair", "count", "lower", 0},
	{"amrpc.noop_rtt_us", "us", "lower", 0},
	{"amrpc.noop_rtt_1k_us", "us", "lower", 0},
	{"amrpc.allocs_per_call", "count", "lower", 0},
	{"amrpc.dial_us", "us", "lower", 0},
	{"amrpc.self_us", "us", "lower", 0},
	{"amrpc.component_us", "us", "lower", 0},
	{"amrpc.frames_per_flush", "ratio", "higher", 0},
	{"amrpc.queued_share", "ratio", "lower", 0},
	{"amrpc.rejected", "count", "lower", 0},
	{"amrpc.sheds", "count", "lower", 0},
	{"amrpc.checksum_drops", "count", "lower", 0},
	{"amrpc.malformed", "count", "lower", 0},
	{"amrpc.error_replies", "count", "lower", 0},
	{"amrpc.client_retries", "count", "lower", 0},
	{"amrpc.client_transport_errors", "count", "lower", 0},
	{"amrpc.reconnects", "count", "lower", 0},
	{"naming.lookup_lease_us", "us", "lower", 0},
	{"naming.ring_owner_ns", "ns", "lower", 0},
	{"cluster.owner_direct_us", "us", "lower", 0},
	{"cluster.forward_us", "us", "lower", 0},
	{"cluster.forwards_per_call", "ratio", "lower", 0},
	{"cluster.forward_retries", "count", "lower", 0},
	{"cluster.stale_refusals", "count", "lower", 0},
	{"cluster.converge_s", "s", "lower", 0},
	{"statesync.capture_ns", "ns", "lower", 0},
	{"statesync.handoff_us", "us", "lower", 0},
	{"statesync.lag_max", "count", "lower", 0},
	{"statesync.drain_ms", "ms", "lower", 0},
	{"statesync.plane_overhead_pct", "%", "lower", 0},
	{"statesync.overflows", "count", "lower", 0},
	{"statesync.skipped", "count", "lower", 0},
	{"statesync.offer_errors", "count", "lower", 0},
	{"obs.hooks_on_pair_ns", "ns", "lower", 0},
	{"trace.overhead_pct", "%", "lower", 0},
	{"trace.client_span_us", "us", "lower", 0},
	{"runtime.gc_cycles", "count", "lower", 0},
	{"runtime.gc_pause_ms", "ms", "lower", 0},
	{"runtime.goroutines_peak", "count", "lower", 0},
	{"runtime.rss_peak_mb", "MB", "lower", 0},
	{"client.latency_p99_us", "us", "lower", 0},
}

// mustBeZero are the layer metrics that count a fault: the gate fails a
// traced run on which any of them is not 0.
var mustBeZero = []string{
	"moderator.lost", "amrpc.rejected", "amrpc.sheds", "amrpc.checksum_drops",
	"amrpc.malformed", "amrpc.error_replies", "amrpc.client_retries",
	"amrpc.client_transport_errors", "amrpc.reconnects", "cluster.stale_refusals",
	"statesync.overflows", "statesync.skipped", "statesync.offer_errors",
}
