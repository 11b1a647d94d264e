package main

import (
	"encoding/json"
)

// This file is the single declaration of what the benchmark measures:
// workload names, metric names, units, directions and regression bounds.
// BENCHMARK.json at the repository root is `skipper-bench -manifest`
// written to a file; bench_test.go fails when the two drift apart.

// runSeconds is how long one measured phase lasts when the caller does not
// say (the driver always does, with this value from BENCHMARK.json).
const runSeconds = 12

type workloadDef struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

type metricDef struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
	// Bound is the share of the parent's median by which an end-to-end
	// metric may worsen; per-layer metrics carry none.
	Bound float64 `json:"bound,omitempty"`
}

const (
	lower  = "lower"
	higher = "higher"
)

var workloadDefs = []workloadDef{
	{"batch-vanilla", "paper baseline: 5 tenants x Q12/Q5/join+agg on the pull engine over one CSD; engine hash-join build and scan decode dominate, mjoin is bypassed"},
	{"batch-skipper", "same data and queries on MJoin with a 6-object cache (< Q5's 13-object working set): probe chains, arrival decode, evictions and reissues; with batch-vanilla it is Fig. 7"},
	{"serve-micro", "2 closed-loop connections, one tiny nation-region join: per-query fixed cost (wire, plan, cluster/vtime/csd construction); decode and join do nothing, segcache always hits"},
	{"serve-dash", "2 tenants replay recent-window dashboard queries over a date-clustered dataset with a 4-object segcache (< 9-object footprint): pruning, projection, cache under eviction pressure"},
	{"ingest-v2", "write side: re-encode one tenant dataset to the v2 wire format, lazy-decode it and rebuild catalog statistics and Blooms; the layers the other four only read"},
}

// endToEnd metrics are reported by every workload with --trace 0. The
// contract allows a bound of at most a quarter, and host time on the
// reference host (two shared CPUs, busy neighbours) spreads by a twentieth
// between runs in a quiet quarter of an hour and by more than a quarter in
// a busy one (README.md, Spreads), so a bound on it would reject unchanged
// code; the timings are reported with the per-layer set, unbounded, for
// paired comparison. What is bounded here repeats: what an op allocates.
var endToEnd = []metricDef{
	{"setup_s", "s", lower, 0.25},
	{"alloc_mb_per_op", "MB", lower, 0.03},
	{"mallocs_per_op", "count", lower, 0.05},
}

// exactMetrics are deterministic at a fixed seed: any difference between
// two runs of the same code is a failure of -agree, and a later change
// may only move one its issue named beforehand. They cannot be
// end-to-end metrics under the builder's contract (not every workload has
// them, error_rate is always 0, and a virtual time reads the same on every
// run), so they are reported with the per-layer set.
var exactMetrics = []metricDef{
	{"error_rate", "ratio", lower, 0},
	{"virt_s_per_op", "s", lower, 0},
	{"device_gets_per_op", "count", lower, 0},
	{"group_switches_per_op", "count", lower, 0},
	{"stored_bytes_per_row", "B", lower, 0},
}

// layerPackages are the layers the traced pass attributes op wall time
// to, one <package>.self_ms_per_op each.
var layerPackages = []string{
	"objstore", "sql", "skipper", "engine", "mjoin", "segment", "csd", "server", "bench",
}

var layerMetrics = []metricDef{
	// Host time per op of the untraced half of the pass: throughput,
	// median, and tail (p90 for batch-* and ingest-v2, p99 for serve-*).
	{"ops_per_s", "1/s", higher, 0},
	{"op_wall_p50_ms", "ms", lower, 0},
	{"op_wall_tail_ms", "ms", lower, 0},
	{"tuple.hash_ns_per_row", "ns", lower, 0},
	{"segment.decode_full_us_per_obj", "us", lower, 0},
	{"segment.decode_proj3_us_per_obj", "us", lower, 0},
	{"segment.encode_v2_us_per_obj", "us", lower, 0},
	{"segment.decode_busy_ms_per_op", "ms", lower, 0},
	{"segment.bytes_decoded_per_op", "B", lower, 0},
	{"segment.bytes_skipped_by_projection_per_op", "B", higher, 0},
	{"stats.collect_us_per_obj", "us", lower, 0},
	{"stats.segments_skipped_per_op", "count", higher, 0},
	{"engine.scan_filter_ms", "ms", lower, 0},
	{"engine.q5_pullplan_ms", "ms", lower, 0},
	{"engine.joinagg_dop1_ms", "ms", lower, 0},
	{"engine.joinagg_dop2_ms", "ms", lower, 0},
	{"engine.joinagg_mallocs", "count", lower, 0},
	{"mjoin.q5_mem_full_ms", "ms", lower, 0},
	{"mjoin.q5_mem_tight_ms", "ms", lower, 0},
	{"mjoin.q5_mem_mallocs", "count", lower, 0},
	{"mjoin.requests_per_op", "count", lower, 0},
	{"mjoin.reissues_per_op", "count", lower, 0},
	{"mjoin.evictions_per_op", "count", lower, 0},
	{"mjoin.subplans_executed_per_op", "count", lower, 0},
	{"mjoin.subplans_pruned_per_op", "count", higher, 0},
	{"expr.evalbool_ns_per_row", "ns", lower, 0},
	{"sql.plan_us_micro", "us", lower, 0},
	{"sql.plan_us_dash", "us", lower, 0},
	{"segcache.hit_ratio", "ratio", higher, 0},
	{"segcache.get_hit_ns", "ns", lower, 0},
	{"segcache.put_evict_ns", "ns", lower, 0},
	{"csd.gets_coalesced_per_op", "count", higher, 0},
	{"csd.objects_served_per_op", "count", lower, 0},
	{"csd.switch_virt_s_per_op", "s", lower, 0},
	{"csd.dispatch_us_per_get", "us", lower, 0},
	{"vtime.events_per_s", "1/s", higher, 0},
	{"vtime.chan_roundtrip_ns", "ns", lower, 0},
	{"skipper.stall_virt_s_per_op", "s", lower, 0},
	{"skipper.processing_virt_s_per_op", "s", lower, 0},
	{"skipper.gets_issued_per_op", "count", lower, 0},
	{"skipper.cache_hits_per_op", "count", higher, 0},
	{"skipper.min_query_us", "us", lower, 0},
	{"server.exec_wall_us_p50", "us", lower, 0},
	{"server.queue_us_p50", "us", lower, 0},
	{"server.wire_overhead_us_p50", "us", lower, 0},
	{"server.rejected_per_op", "count", lower, 0},
	{"server.parse_request_ns", "ns", lower, 0},
	{"host.gc_cycles_per_op", "count", lower, 0},
	{"host.heap_peak_mb", "MB", lower, 0},
	{"trace.overhead_pct", "%", lower, 0},
	{"trace.unattributed_pct", "%", lower, 0},
}

// perLayer is everything a --trace 1 run reports: the exact metrics, the
// counters and probes above, and one self-time metric per layer.
var perLayer = func() []metricDef {
	out := append([]metricDef(nil), exactMetrics...)
	out = append(out, layerMetrics...)
	for _, p := range layerPackages {
		out = append(out, metricDef{Name: p + ".self_ms_per_op", Unit: "ms", Better: lower})
	}
	return out
}()

func unitOf(defs []metricDef) map[string]string {
	m := make(map[string]string, len(defs))
	for _, d := range defs {
		m[d.Name] = d.Unit
	}
	return m
}

// manifest is the shape of BENCHMARK.json.
type manifest struct {
	Command    []string      `json:"command"`
	Paths      []string      `json:"paths"`
	RunSeconds int           `json:"run_seconds"`
	Workloads  []workloadDef `json:"workloads"`
	EndToEnd   []metricDef   `json:"end_to_end"`
	PerLayer   []metricDef   `json:"per_layer"` // bound 0, so the key is left out
}

func manifestJSON() []byte {
	b, err := json.MarshalIndent(manifest{
		Command:    []string{"bash", "bench/run.sh"},
		Paths:      []string{"bench"},
		RunSeconds: runSeconds,
		Workloads:  workloadDefs,
		EndToEnd:   endToEnd,
		PerLayer:   perLayer,
	}, "", "  ")
	if err != nil {
		panic(err) // plain structs of strings and numbers
	}
	return append(b, '\n')
}
