package main

// metricDef declares one end-to-end metric.
type metricDef struct {
	Name   string
	Unit   string
	Better string // "higher" or "lower"
	// Bound is BENCHMARK.json's regression bound: the share of the parent's
	// median by which the metric may get worse. The runs behind those medians
	// each use another seed, so the bound has to clear the metric's
	// seed-to-seed spread on its widest workload, not only the machine's
	// noise. 0 with PerLayerOnly set.
	Bound float64
	// SameSeed is -compare's bound. -compare sets two full runs of equal seed
	// side by side, where simulated (virtual-time) results repeat exactly:
	// 0 allows no drift at all. Host-time bounds clear what two runs of one
	// commit differ by on the 2-core box (throughput 5 %, short setups 20 %).
	SameSeed float64
	// PerLayerOnly metrics cannot carry a BENCHMARK.json bound — they are 0
	// on some workload, or vary between seeds by more than the largest bound
	// allowed — so BENCHMARK.json declares them per layer (no bound). They
	// are still printed with the end-to-end metrics and held by -compare.
	PerLayerOnly bool
}

// endToEnd are the metrics a user of the simulator sees. Host-time metrics
// are the median over the untraced repetitions; simulated ones are exact.
var endToEnd = []metricDef{
	{Name: "host_pages_per_s", Unit: "pages/s", Better: "higher", Bound: 0.25, SameSeed: 0.10},
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25, SameSeed: 0.25},
	{Name: "steady_allocs_per_kpage", Unit: "allocs/kpage", Better: "lower", Bound: 0.08, SameSeed: 0.01},
	{Name: "steady_alloc_bytes_per_page", Unit: "B/page", Better: "lower", Bound: 0.18, SameSeed: 0.01},
	{Name: "setup_allocs", Unit: "count", Better: "lower", Bound: 0.01, SameSeed: 0.01},
	{Name: "peak_rss_mb", Unit: "MiB", Better: "lower", Bound: 0.25, SameSeed: 0.25},
	{Name: "sim_iops", Unit: "req/s", Better: "higher", Bound: 0.25},
	{Name: "sim_erases", Unit: "count", Better: "lower", PerLayerOnly: true},
	{Name: "sim_waf", Unit: "ratio", Better: "lower", Bound: 0.08},
	{Name: "sim_read_p99_us", Unit: "us", Better: "lower", PerLayerOnly: true},
	{Name: "sim_write_ack_p99_us", Unit: "us", Better: "lower", PerLayerOnly: true},
	{Name: "failed_ops_share", Unit: "ratio", Better: "lower", PerLayerOnly: true},
}

// perLayerUnits lists every per-layer metric with its unit, in print order.
// Direction is by suffix: shares, rates and speedups aside, these are costs
// and counts an optimisation lowers (see layerBetter).
var perLayerUnits = []struct{ Name, Unit string }{
	{"workload.next_calls", "count"},
	{"workload.next_busy_s", "s"},
	{"workload.next_ns_per_req", "ns"},
	{"workload.share", "ratio"},
	{"workload.zipf_draw_ns", "ns"},

	{"ftl.write_calls", "count"},
	{"ftl.write_busy_s", "s"},
	{"ftl.write_p50_ns", "ns"},
	{"ftl.write_p99_ns", "ns"},
	{"ftl.gc_write_calls", "count"},
	{"ftl.gc_write_busy_s", "s"},
	{"ftl.read_calls", "count"},
	{"ftl.read_busy_s", "s"},
	{"ftl.read_p50_ns", "ns"},
	{"ftl.read_p99_ns", "ns"},
	{"ftl.trim_calls", "count"},
	{"ftl.trim_busy_s", "s"},
	{"ftl.idle_calls", "count"},
	{"ftl.idle_busy_s", "s"},
	{"ftl.share", "ratio"},
	{"ftl.fg_gcs", "count"},
	{"ftl.bg_gcs", "count"},
	{"ftl.gc_copies_per_host_write", "ratio"},
	{"ftl.backup_writes_per_host_write", "ratio"},
	{"ftl.pad_writes_per_host_write", "ratio"},
	{"ftl.lsb_write_share", "ratio"},

	{"nand.reads", "count"},
	{"nand.programs_lsb", "count"},
	{"nand.programs_msb", "count"},
	{"nand.erases", "count"},
	{"nand.new_device_ms", "ms"},
	{"nand.program_first_touch_ns", "ns"},
	{"nand.program_reuse_ns", "ns"},
	{"nand.readinto_ns", "ns"},
	{"nand.erase_ns", "ns"},
	{"nand.est_busy_s", "s"},
	{"nand.est_share", "ratio"},

	{"buffer.admit_release_ns", "ns"},
	{"buffer.admits", "count"},
	{"buffer.peak_occupied", "count"},
	{"buffer.est_busy_s", "s"},
	{"buffer.est_share", "ratio"},

	{"ssd.build_s", "s"},
	{"ssd.prewear_s", "s"},
	{"ssd.prefill_s", "s"},
	{"ssd.prefill_pages_per_s", "pages/s"},
	{"ssd.self_busy_s", "s"},
	{"ssd.self_share", "ratio"},
	{"ssd.finalise_ms", "ms"},

	{"metrics.record_ns_per_req", "ns"},
	{"metrics.finalise_ms", "ms"},

	{"shard.epochs", "count"},
	{"shard.sharded_share", "ratio"},
	{"shard.ops_per_epoch", "ratio"},
	{"shard.gc_preruns", "count"},
	{"shard.gc_prerun_copies", "count"},
	{"shard.fallback_r1", "count"},
	{"shard.fallback_r2", "count"},
	{"shard.fallback_r4", "count"},
	{"shard.fallback_r5", "count"},
	{"shard.fallback_rp", "count"},
	{"shard.fallback_rq", "count"},
	{"shard.fallback_trim", "count"},
	{"shard.fallback_other", "count"},
	{"shard.speedup_vs_serial", "ratio"},
	{"shard.extra_allocs_per_kpage", "allocs/kpage"},

	{"rel.reads_classified", "count"},
	{"rel.retried_share", "ratio"},
	{"rel.retry_rounds_per_read", "ratio"},
	{"rel.uncorrectable", "count"},
	{"rel.scrub_reads", "count"},
	{"rel.refresh_copies", "count"},
	{"rel.retired_blocks", "count"},
	{"rel.ber_ns", "ns"},
	{"rel.read_outcome_ns", "ns"},
	{"rel.read_overhead_ns", "ns"},

	{"trace.span_cost_ns", "ns"},
	{"trace.overhead_pct", "%"},
	{"trace.spans_written", "count"},
}

// layerBetter gives BENCHMARK.json's direction for a per-layer metric. Per
// layer the direction is advisory (no bound): more of a layer's work
// sharded or done per epoch is better, everything else is a cost.
func layerBetter(name string) string {
	switch name {
	case "shard.sharded_share", "shard.ops_per_epoch", "shard.speedup_vs_serial",
		"ssd.prefill_pages_per_s", "ftl.lsb_write_share":
		return "higher"
	}
	return "lower"
}
