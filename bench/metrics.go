package main

// The benchmark's declared surface. BENCHMARK.json at the repository
// root carries the same names, units, directions and bounds for the
// driver; bench_test.go fails when the two drift apart.

// workloadDecl names one workload and records why it exists.
type workloadDecl struct {
	Name string
	Why  string
}

// metricDecl is one declared metric. Bound is the share of the parent's
// median by which an end-to-end metric may worsen before a change counts
// as a regression; per-layer metrics carry none.
type metricDecl struct {
	Name   string
	Unit   string
	Better string
	Bound  float64
}

var workloadDecls = []workloadDecl{
	{"walk_unthrottled", "read-side metadata storm: fs.WalkDir+Info over 8k files through all six data-plane layers on osfs; the sweep exceeds the stage's 512-slot classification cache"},
	{"churn_unthrottled", "write-heavy top-4 op mix through the typed client on osfs: fd-table mutation, two-path ops, multi-rule classification; bypasses vfs, so a vfs-only gain must not show"},
	{"throttled_multijob", "four jobs paced by token buckets under a 40k ops/s cluster limit on in-memory localfs: throughput is pinned by the limit, so fast-path gains must show no change"},
	{"fleet_rounds", "256 TCP-registered stages driven by back-to-back control rounds with 64 retunes each: control and rpcio do the work, the data plane almost none"},
}

// endToEnd is what a user of the system sees. Every workload reports
// every metric (README.md has the table). Apart from the set-up time
// they are ratios against the workload's direct twin, the same work
// without PADLL measured in the same run: the reference box's speed
// drifts by a fifth within the hour, and only a same-run ratio holds
// still under that.
var endToEnd = []metricDecl{
	{"setup_s", "s", "lower", 0.25},
	{"overhead_ratio", "ratio", "lower", 0.20},
	{"latency_ratio", "ratio", "lower", 0.20},
}

// perLayer is the cost ladder and the per-layer counters of the traced
// run. A layer that is not on a workload's path reports 0 there.
var perLayer = []metricDecl{
	{Name: "ladder.top_ns_per_op", Unit: "ns", Better: "lower"},
	{Name: "kernel.ns_per_op", Unit: "ns", Better: "lower"},
	{Name: "kernel.direct_ops_per_s", Unit: "1/s", Better: "higher"},
	{Name: "osfs.self_ns_per_op", Unit: "ns", Better: "lower"},
	{Name: "osfs.allocs_per_op", Unit: "count", Better: "lower"},
	{Name: "localfs.ns_per_op", Unit: "ns", Better: "lower"},
	{Name: "mount.self_ns_per_op", Unit: "ns", Better: "lower"},
	{Name: "policy.select_ns_per_op", Unit: "ns", Better: "lower"},
	{Name: "stage.enforce_ns_per_op", Unit: "ns", Better: "lower"},
	{Name: "stage.enforce_parallel_ns_per_op", Unit: "ns", Better: "lower"},
	{Name: "stage.enforce_allocs_per_op", Unit: "count", Better: "lower"},
	{Name: "tokenbucket.wait_ns_per_op", Unit: "ns", Better: "lower"},
	{Name: "tokenbucket.wait_parallel_ns_per_op", Unit: "ns", Better: "lower"},
	{Name: "tokenbucket.limit_adherence", Unit: "ratio", Better: "higher"},
	{Name: "interpose.self_ns_per_op", Unit: "ns", Better: "lower"},
	{Name: "interpose.controlled_ops", Unit: "count", Better: "higher"},
	{Name: "interpose.bypassed_ops", Unit: "count", Better: "lower"},
	{Name: "posix.self_ns_per_op", Unit: "ns", Better: "lower"},
	{Name: "posix.allocs_per_op", Unit: "count", Better: "lower"},
	{Name: "posix.op_p99_us", Unit: "us", Better: "lower"},
	{Name: "vfs.self_ns_per_op", Unit: "ns", Better: "lower"},
	{Name: "vfs.allocs_per_op", Unit: "count", Better: "lower"},
	{Name: "vfs.op_p99_us", Unit: "us", Better: "lower"},
	{Name: "app.ops_per_s", Unit: "1/s", Better: "higher"},
	{Name: "app.op_p50_us", Unit: "us", Better: "lower"},
	{Name: "app.direct_op_p50_us", Unit: "us", Better: "lower"},
	{Name: "app.allocs_per_op", Unit: "count", Better: "lower"},
	{Name: "app.op_p99_us", Unit: "us", Better: "lower"},
	{Name: "stage.admitted_ops", Unit: "count", Better: "higher"},
	{Name: "stage.passthrough_ops", Unit: "count", Better: "lower"},
	{Name: "stage.dropped_ops", Unit: "count", Better: "lower"},
	{Name: "stage.wait_p50_us", Unit: "us", Better: "lower"},
	{Name: "stage.wait_p99_us", Unit: "us", Better: "lower"},
	{Name: "stage.collect_ns", Unit: "ns", Better: "lower"},
	{Name: "rpcio.exchange_us", Unit: "us", Better: "lower"},
	{Name: "rpcio.self_us", Unit: "us", Better: "lower"},
	{Name: "rpcio.bytes_per_exchange", Unit: "B", Better: "lower"},
	{Name: "rpcio.served_calls", Unit: "count", Better: "lower"},
	{Name: "rpcio.delta_collects", Unit: "count", Better: "higher"},
	{Name: "rpcio.full_collects", Unit: "count", Better: "lower"},
	{Name: "control.collect_ms", Unit: "ms", Better: "lower"},
	{Name: "control.allocate_us", Unit: "us", Better: "lower"},
	{Name: "control.push_ms", Unit: "ms", Better: "lower"},
	{Name: "control.round_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "control.round_p99_ms", Unit: "ms", Better: "lower"},
	{Name: "control.rpcs_per_round", Unit: "count", Better: "lower"},
	{Name: "control.push_calls_per_round", Unit: "count", Better: "lower"},
	{Name: "control.pushes_skipped_per_round", Unit: "count", Better: "higher"},
	{Name: "control.wire_bytes_per_round", Unit: "B", Better: "lower"},
	{Name: "control.collect_failures", Unit: "count", Better: "lower"},
	{Name: "control.allocs_per_round", Unit: "count", Better: "lower"},
	{Name: "control.alloc_bytes_per_round", Unit: "B", Better: "lower"},
	{Name: "control.register_us_per_stage", Unit: "us", Better: "lower"},
	{Name: "control.reclaim_s", Unit: "s", Better: "lower"},
	{Name: "control.rounds_to_reclaim", Unit: "count", Better: "lower"},
	{Name: "trace.overhead_pct", Unit: "%", Better: "lower"},
}

// metric is one reported value, in the shape the driver reads.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// values is what a workload measured, keyed by declared metric name.
type values map[string]float64

// render reports vals under the declared names and units of decls. A
// declared metric the workload did not set reads 0: the layer is not on
// its path.
func render(decls []metricDecl, vals values) map[string]metric {
	out := make(map[string]metric, len(decls))
	for _, d := range decls {
		out[d.Name] = metric{Value: vals[d.Name], Unit: d.Unit}
	}
	return out
}

// undeclared lists the names in vals that no declaration covers.
func undeclared(vals values) []string {
	known := map[string]bool{}
	for _, d := range endToEnd {
		known[d.Name] = true
	}
	for _, d := range perLayer {
		known[d.Name] = true
	}
	var out []string
	for name := range vals {
		if !known[name] {
			out = append(out, name)
		}
	}
	return out
}
