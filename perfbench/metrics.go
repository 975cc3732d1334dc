package main

import (
	"fmt"
	"sort"
)

// metricDef declares one reported metric. BENCHMARK.json carries the same
// list; the self-test keeps the two equal.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// endToEndDefs are reported with -trace 0, on every workload. The timing
// bounds are the widest allowed: on the 2-vCPU virtual machine the
// benchmark was built on, whole runs slow down by 15–30% when the host is
// busy (README.md, Steadiness).
var endToEndDefs = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"ingest_updates_per_s", "updates/s", "higher", 0.25},
	{"ingest_p50_ms", "ms", "lower", 0.25},
	{"ingest_p95_ms", "ms", "lower", 0.25},
	{"cpu_us_per_update", "us", "lower", 0.25},
	{"plot_p50_ms", "ms", "lower", 0.25},
	{"plot_p95_ms", "ms", "lower", 0.25},
	{"rangecount_p50_ms", "ms", "lower", 0.25},
	{"reads_per_s", "reads/s", "higher", 0.25},
	{"peak_rss_mb", "MB", "lower", 0.15},
	{"ok_frac", "ratio", "higher", 0.01},
}

// perLayerDefs are reported with -trace 1, on every workload; a layer the
// workload does not exercise reports 0 with a sample count of 0.
var perLayerDefs = []metricDef{
	{Name: "server.decode_ms", Unit: "ms", Better: "lower"},
	{Name: "server.publish_ms", Unit: "ms", Better: "lower"},
	{Name: "server.publish_bytes", Unit: "count", Better: "lower"},
	{Name: "server.queue_wait_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "server.bootstrap_decode_s", Unit: "s", Better: "lower"},
	{Name: "core.batch_ms", Unit: "ms", Better: "lower"},
	{Name: "core.search_ms", Unit: "ms", Better: "lower"},
	{Name: "core.apply_ms", Unit: "ms", Better: "lower"},
	{Name: "core.maintain_ms", Unit: "ms", Better: "lower"},
	{Name: "core.distance_computed_per_update", Unit: "count", Better: "lower"},
	{Name: "core.pruned_frac", Unit: "ratio", Better: "higher"},
	{Name: "core.rounds_per_batch", Unit: "count", Better: "lower"},
	{Name: "pipeline.batch_ms", Unit: "ms", Better: "lower"},
	{Name: "pipeline.stall_ms", Unit: "ms", Better: "lower"},
	{Name: "wal.fsync_ms", Unit: "ms", Better: "lower"},
	{Name: "wal.syncs_per_batch", Unit: "count", Better: "lower"},
	{Name: "wal.checkpoint_ms", Unit: "ms", Better: "lower"},
	{Name: "wal.checkpoint_bytes", Unit: "count", Better: "lower"},
	{Name: "wal.append_bytes_per_update", Unit: "count", Better: "lower"},
	{Name: "wal.resume_ms", Unit: "ms", Better: "lower"},
	{Name: "bubble.build_s", Unit: "s", Better: "lower"},
	{Name: "optics.space_ms", Unit: "ms", Better: "lower"},
	{Name: "optics.run_ms", Unit: "ms", Better: "lower"},
	{Name: "approx.rangecount_ms", Unit: "ms", Better: "lower"},
	{Name: "runtime.gc_pause_ms", Unit: "ms", Better: "lower"},
	{Name: "runtime.alloc_bytes_per_update", Unit: "count", Better: "lower"},
	{Name: "loadgen.late_p95_ms", Unit: "ms", Better: "lower"},
	{Name: "trace.overhead_frac", Unit: "ratio", Better: "lower"},
}

// checkDeclared verifies that the metrics a run produced are exactly the
// declared set, with the declared units.
func checkDeclared(got map[string]value, defs []metricDef) error {
	want := make(map[string]string, len(defs))
	for _, d := range defs {
		want[d.Name] = d.Unit
	}
	var bad []string
	for name, v := range got {
		if u, ok := want[name]; !ok || u != v.Unit {
			bad = append(bad, fmt.Sprintf("%s[%s]", name, v.Unit))
		}
	}
	for name := range want {
		if _, ok := got[name]; !ok {
			bad = append(bad, "missing "+name)
		}
	}
	if len(bad) > 0 {
		sort.Strings(bad)
		return fmt.Errorf("metrics differ from the declared set: %v", bad)
	}
	return nil
}
