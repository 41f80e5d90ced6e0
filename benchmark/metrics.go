package main

import (
	"strings"

	"github.com/chillerdb/chiller/internal/server"
)

// Metric is one measured value with its unit.
type Metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// MetricDef names a metric. BENCHMARK.json carries the same names, units
// and directions; a test holds the two together.
type MetricDef struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
	// Bound is the share of the baseline by which an end-to-end metric
	// may get worse before it counts as a regression (absolute for
	// failed_share). Per-layer metrics have none.
	Bound float64
}

// endToEnd lists what a user of the system would see, measured with
// tracing off. The bounds on the three time-like metrics are what the
// reference host can resolve: it slows by 10-20% in episodes that steal
// does not show, and ten runs of one binary spread by 4-13% (README.md).
var endToEnd = []MetricDef{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "tput_tps", Unit: "1/s", Better: "higher", Bound: 0.25},
	{Name: "lat_p50_us", Unit: "us", Better: "lower", Bound: 0.25},
	{Name: "cpu_us_per_commit", Unit: "us", Better: "lower", Bound: 0.25},
	{Name: "live_heap_mb", Unit: "MB", Better: "lower", Bound: 0.08},
}

// failedShare is reported and compared by run and compare but is not in
// BENCHMARK.json: it is expected to be exactly 0, and the driver's
// contract carries failures as a count of their own.
var failedShare = MetricDef{Name: "failed_share", Unit: "ratio", Better: "lower", Bound: 0.0005}

// runMetrics is what run prints and compare judges.
var runMetrics = append(append([]MetricDef(nil), endToEnd...), failedShare)

// Verb kinds the traced run reports per commit, and the subset whose
// round trips have a latency worth reporting.
var (
	verbKinds = []string{
		server.KindLockRead, server.KindCommit, server.KindAbort, server.KindReplApply,
		server.KindInnerExec, server.KindRoute, server.KindInnerRepl, server.KindInnerAck,
		server.KindDoorbell, server.KindSnapRead,
	}
	verbLatencyKinds = []string{
		server.KindLockRead, server.KindDoorbell, server.KindReplApply,
		server.KindInnerExec, server.KindRoute, server.KindSnapRead,
	}
)

// probeMetrics are the workload-independent per-layer probes, in report
// order. A name's suffix gives its unit.
var probeMetrics = []string{
	"storage.lock_ns", "storage.get_ns", "storage.put_ns", "storage.put_allocs", "storage.insert_1m_ns",
	"storage.mvcc_readat_ns", "storage.mvcc_putat_ns", "storage.mvcc_putat_allocs", "storage.clock_cycle_ns",
	"wire.frames_encode_ns", "wire.frames_encode_allocs", "wire.frames_decode_ns", "wire.frames_decode_allocs",
	"server.proto_lockreq_ns", "server.proto_lockreq_allocs", "server.proto_writes_ns", "server.proto_writes_allocs",
	"simnet.call_ns", "simnet.call_allocs", "simnet.send_ns", "simnet.onesided_ns", "simnet.onesided_allocs",
	"simnet.call_5us_rtt_us", "simnet.onesided_5us_rtt_us",
	"tcpnet.call_ns", "tcpnet.call_allocs", "tcpnet.call_4k_ns", "tcpnet.send_ns",
	"tcpnet.onesided_ns", "tcpnet.onesided_allocs", "tcpnet.call_par8_ns",
	"server.lane_serial_ns", "server.lane_serial_allocs",
	"server.lockread_local_ns", "server.lockread_local_allocs",
	"server.commit_local_ns", "server.commit_local_allocs",
	"server.lockread_scalar_ns", "server.lockread_scalar_allocs",
	"server.lockread_doorbell_ns", "server.lockread_doorbell_allocs",
	"server.doorbell_4verb_ns", "server.doorbell_4verb_allocs",
	"wal.append_ns", "wal.append_allocs", "wal.append_par8_ns", "wal.appends_per_flush_par8", "wal.replay_100k_ms",
	"cluster.dir_partition_ns", "cluster.dir_ishot_ns",
	"depgraph.decide_neworder_ns", "depgraph.decide_neworder_allocs",
	"core.neworder_local_ns", "core.neworder_local_allocs",
	"core.neworder_dist_ns", "core.neworder_dist_allocs",
	"core.payment_dist_ns", "core.payment_dist_allocs",
	"core.saudit_ns", "core.saudit_allocs",
	"twopl.neworder_dist_ns", "twopl.neworder_dist_allocs",
	"occ.neworder_dist_ns", "occ.neworder_dist_allocs",
	"chillerpart.partition_4k_ms",
}

// tracedMetrics are the per-layer metrics of the traced run, in report
// order, with their units.
var tracedMetrics = func() []MetricDef {
	defs := []MetricDef{
		{Name: "driver.lat_p99_us", Unit: "us"},
		{Name: "driver.lat_p999_us", Unit: "us"},
		{Name: "driver.attempts_per_commit", Unit: "1/commit"},
		{Name: "driver.backoff_share", Unit: "ratio"},
		{Name: "driver.attempt_p50_us", Unit: "us"},
		{Name: "driver.p50_us.neworder", Unit: "us"},
		{Name: "driver.p50_us.payment", Unit: "us"},
		{Name: "driver.p50_us.transfer", Unit: "us"},
		{Name: "driver.p50_us.audit", Unit: "us"},
		{Name: "driver.distributed_share", Unit: "ratio"},
		{Name: "driver.tput_iqr_pct", Unit: "%"},
		{Name: "driver.trace_overhead_pct", Unit: "%"},
		{Name: "driver.steal_pct", Unit: "%"},
		{Name: "driver.calib_ns", Unit: "ns"},
		{Name: "runtime.allocs_per_commit", Unit: "1/commit"},
		{Name: "runtime.alloc_bytes_per_commit", Unit: "B/commit"},
		{Name: "runtime.gc_pause_ms", Unit: "ms"},
		{Name: "transport.msgs_per_commit", Unit: "1/commit"},
		{Name: "transport.bytes_per_commit", Unit: "B/commit"},
		{Name: "transport.rpcs_per_commit", Unit: "1/commit"},
		{Name: "transport.doorbells_per_commit", Unit: "1/commit"},
		{Name: "transport.verbs_per_doorbell", Unit: "ratio"},
	}
	for _, k := range verbKinds {
		defs = append(defs, MetricDef{Name: "server.verb_per_commit." + k, Unit: "1/commit"})
	}
	for _, k := range verbLatencyKinds {
		defs = append(defs, MetricDef{Name: "server.verb_p50_us." + k, Unit: "us"})
	}
	for _, k := range verbLatencyKinds {
		defs = append(defs, MetricDef{Name: "server.verb_p99_us." + k, Unit: "us"})
	}
	return append(defs,
		MetricDef{Name: "cc.aborts_per_commit.lock-conflict", Unit: "1/commit"},
		MetricDef{Name: "cc.aborts_per_commit.other", Unit: "1/commit"},
		MetricDef{Name: "wal.appends_per_commit", Unit: "1/commit"},
		MetricDef{Name: "wal.appends_per_flush", Unit: "ratio"},
		MetricDef{Name: "wal.bytes_per_commit", Unit: "B/commit"},
		MetricDef{Name: "storage.mvcc_max_chain_depth", Unit: "count"},
		MetricDef{Name: "storage.max_bucket_chain", Unit: "count"},
	)
}()

// probeUnit derives a probe metric's unit from its name.
func probeUnit(name string) string {
	switch {
	case strings.HasSuffix(name, "_ns"):
		return "ns"
	case strings.HasSuffix(name, "_us"):
		return "us"
	case strings.HasSuffix(name, "_ms"):
		return "ms"
	case strings.HasSuffix(name, "_allocs"):
		return "allocs/op"
	}
	return "ratio" // wal.appends_per_flush_par8
}

// higherIsBetter names the per-layer metrics that count amortisation;
// every other one is a cost, a count of work or a spread, where lower is
// better.
var higherIsBetter = map[string]bool{
	"wal.appends_per_flush_par8":   true,
	"wal.appends_per_flush":        true,
	"transport.verbs_per_doorbell": true,
}

// perLayer lists every per-layer metric: the probes, then the traced run.
func perLayer() []MetricDef {
	defs := make([]MetricDef, 0, len(probeMetrics)+len(tracedMetrics))
	for _, name := range probeMetrics {
		defs = append(defs, MetricDef{Name: name, Unit: probeUnit(name)})
	}
	defs = append(defs, tracedMetrics...)
	for i := range defs {
		defs[i].Better = "lower"
		if higherIsBetter[defs[i].Name] {
			defs[i].Better = "higher"
		}
	}
	return defs
}

// unitOf gives every metric's unit by name, so that the code that
// measures a value names it once and cannot disagree with the tables.
var unitOf = func() map[string]string {
	m := make(map[string]string)
	for _, def := range append(perLayer(), runMetrics...) {
		m[def.Name] = def.Unit
	}
	return m
}()
