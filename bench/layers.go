package main

import (
	"fmt"

	"flexftl/internal/ftl"
	"flexftl/internal/ssd"
)

var bufferPages = ssd.DefaultConfig().BufferPages

// micro holds the standalone per-op costs measured beside the traced
// repetition.
type micro struct {
	zipfNs               float64
	dev                  deviceMicro
	bufferNs             float64
	recordNs, finaliseMs float64
	berNs, outcomeNs     float64
	spanCostNs           float64
	// controlReadNs is the mean ftl.read span of the aged workload's input on
	// a fresh device without the BER model (0 unless the workload is aged).
	controlReadNs float64
}

// runMicro runs the micro-timers that apply to sp.
func runMicro(sp spec, traced outcome, seed uint64) (micro, error) {
	var m micro
	var err error
	p := sp.parts[0]
	m.zipfNs = zipfDrawNs(ftl.DefaultConfig().LogicalPages(p.geometry), p.profile().ZipfTheta)
	build := mlcMicroDevice
	if p.scheme == tlcScheme {
		build = tlcMicroDevice
	}
	if m.dev, err = measureDevice(build); err != nil {
		return m, fmt.Errorf("device micro: %w", err)
	}
	if m.bufferNs, err = bufferAdmitReleaseNs(); err != nil {
		return m, fmt.Errorf("buffer micro: %w", err)
	}
	m.recordNs, m.finaliseMs = collectorMicro(traced.requests)
	m.spanCostNs = spanCostNs()
	if p.aged {
		m.berNs, m.outcomeNs = relMicro()
		control := sp
		control.parts = []part{p}
		control.parts[0].aged = false
		control.parts[0].requests = max(p.requests/4, 1)
		tr := newTracer()
		if _, err := (&runner{sp: control, seed: seed}).rep(tr, false); err != nil {
			return m, fmt.Errorf("un-aged control: %w", err)
		}
		m.controlReadNs = meanNs(tr.ops[opRead])
	}
	return m, nil
}

func meanNs(a opAgg) float64 {
	if a.count == 0 {
		return 0
	}
	return float64(a.total.Nanoseconds()) / float64(a.count)
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// perLayerMetrics turns the traced repetition, the micro-timers and the
// untraced reference into the per-layer metrics. ref is an untraced
// repetition of the same engine; serial is the Run reference of a sharded
// workload (nil otherwise).
func perLayerMetrics(sp spec, ref outcome, serial *outcome, tc outcome, tr *tracer, m micro) (map[string]value, []string) {
	wall := tc.steadyWall.Seconds()
	next := tr.ops[opNext]
	ftlBusy := tr.busy(opWrite, opRead, opTrim, opIdle).Seconds()
	self := wall - next.total.Seconds() - ftlBusy
	st := tc.stats
	hostWrites := float64(st.HostWrites)
	bufBusy := float64(st.HostWrites) * m.bufferNs / 1e9
	nandBusy := m.dev.estBusyS(tc.dev)
	fb := tc.shard.Fallbacks

	vals := map[string]float64{
		"workload.next_calls":      float64(next.count),
		"workload.next_busy_s":     next.total.Seconds(),
		"workload.next_ns_per_req": meanNs(next),
		"workload.share":           ratio(next.total.Seconds(), wall),
		"workload.zipf_draw_ns":    m.zipfNs,

		"ftl.write_calls":                  float64(tr.ops[opWrite].count),
		"ftl.write_busy_s":                 tr.ops[opWrite].total.Seconds(),
		"ftl.write_p50_ns":                 tr.ops[opWrite].quantileNs(0.50),
		"ftl.write_p99_ns":                 tr.ops[opWrite].quantileNs(0.99),
		"ftl.gc_write_calls":               float64(tr.ops[opGCWrite].count),
		"ftl.gc_write_busy_s":              tr.ops[opGCWrite].total.Seconds(),
		"ftl.read_calls":                   float64(tr.ops[opRead].count),
		"ftl.read_busy_s":                  tr.ops[opRead].total.Seconds(),
		"ftl.read_p50_ns":                  tr.ops[opRead].quantileNs(0.50),
		"ftl.read_p99_ns":                  tr.ops[opRead].quantileNs(0.99),
		"ftl.trim_calls":                   float64(tr.ops[opTrim].count),
		"ftl.trim_busy_s":                  tr.ops[opTrim].total.Seconds(),
		"ftl.idle_calls":                   float64(tr.ops[opIdle].count),
		"ftl.idle_busy_s":                  tr.ops[opIdle].total.Seconds(),
		"ftl.share":                        ratio(ftlBusy, wall),
		"ftl.fg_gcs":                       float64(st.ForegroundGCs),
		"ftl.bg_gcs":                       float64(st.BackgroundGCs),
		"ftl.gc_copies_per_host_write":     ratio(float64(st.GCCopies), hostWrites),
		"ftl.backup_writes_per_host_write": ratio(float64(st.BackupWrites), hostWrites),
		"ftl.pad_writes_per_host_write":    ratio(float64(st.PadWrites), hostWrites),
		"ftl.lsb_write_share":              ratio(float64(st.HostWritesLSB), hostWrites),

		"nand.reads":                  float64(tc.dev.reads),
		"nand.programs_lsb":           float64(tc.dev.progFast),
		"nand.programs_msb":           float64(tc.dev.progSlow),
		"nand.erases":                 float64(tc.dev.erases),
		"nand.new_device_ms":          m.dev.newDeviceMs,
		"nand.program_first_touch_ns": m.dev.firstTouchNs,
		"nand.program_reuse_ns":       m.dev.reuseNs,
		"nand.readinto_ns":            m.dev.readNs,
		"nand.erase_ns":               m.dev.eraseNs,
		"nand.est_busy_s":             nandBusy,
		"nand.est_share":              ratio(nandBusy, wall),

		"buffer.admit_release_ns": m.bufferNs,
		"buffer.admits":           float64(st.HostWrites),
		"buffer.peak_occupied":    tr.peakUtil * float64(bufferPages),
		"buffer.est_busy_s":       bufBusy,
		"buffer.est_share":        ratio(bufBusy, wall),

		"ssd.build_s":             tc.setup.build.Seconds(),
		"ssd.prewear_s":           tc.setup.prewear.Seconds(),
		"ssd.prefill_s":           tc.setup.prefill.Seconds(),
		"ssd.prefill_pages_per_s": ratio(float64(tc.setup.prefillPages), tc.setup.prefill.Seconds()),
		"ssd.self_busy_s":         self,
		"ssd.self_share":          ratio(self, wall),
		"ssd.finalise_ms":         float64(tr.finalise.Nanoseconds()) / 1e6,

		"metrics.record_ns_per_req": m.recordNs,
		"metrics.finalise_ms":       m.finaliseMs,

		"shard.epochs":           float64(tc.shard.Epochs),
		"shard.sharded_share":    tc.shard.ShardedShare(),
		"shard.ops_per_epoch":    ratio(float64(tc.shard.ShardedOps), float64(tc.shard.Epochs)),
		"shard.gc_preruns":       float64(tc.shard.GCPreRuns),
		"shard.gc_prerun_copies": float64(tc.shard.GCPreRunCopies),
		"shard.fallback_r1":      float64(fb.R1),
		"shard.fallback_r2":      float64(fb.R2),
		"shard.fallback_r4":      float64(fb.R4),
		"shard.fallback_r5":      float64(fb.R5),
		"shard.fallback_rp":      float64(fb.Rp),
		"shard.fallback_rq":      float64(fb.Rq),
		"shard.fallback_trim":    float64(fb.Trim),
		"shard.fallback_other":   float64(fb.Other),

		"rel.reads_classified":      float64(tc.rel.Reads),
		"rel.retried_share":         ratio(float64(tc.rel.RetriedReads), float64(tc.rel.Reads)),
		"rel.retry_rounds_per_read": ratio(float64(tc.rel.RetryRounds), float64(tc.rel.Reads)),
		"rel.uncorrectable":         float64(tc.rel.Uncorrectable),
		"rel.scrub_reads":           float64(tc.rel.ScrubReads),
		"rel.refresh_copies":        float64(tc.rel.RefreshCopies),
		"rel.retired_blocks":        float64(tc.rel.RetiredBlocks),
		"rel.ber_ns":                m.berNs,
		"rel.read_outcome_ns":       m.outcomeNs,

		"trace.span_cost_ns":  m.spanCostNs,
		"trace.overhead_pct":  100 * (ratio(wall, ref.steadyWall.Seconds()) - 1),
		"trace.spans_written": float64(len(tr.raw)),

		// Declared per layer in BENCHMARK.json (see metricDef.PerLayerOnly).
		"sim_erases":           float64(st.Erases),
		"sim_read_p99_us":      tc.readP99,
		"sim_write_ack_p99_us": tc.writeAckP99,
		"failed_ops_share":     ratio(float64(tc.failed), float64(tc.pages)),
	}
	if serial != nil {
		perKPage := func(o outcome) float64 { return float64(o.steadyMallocs) / float64(o.pages) * 1000 }
		vals["shard.speedup_vs_serial"] = ratio(serial.steadyWall.Seconds(), ref.steadyWall.Seconds())
		vals["shard.extra_allocs_per_kpage"] = perKPage(ref) - perKPage(*serial)
	}
	if m.controlReadNs > 0 {
		vals["rel.read_overhead_ns"] = meanNs(tr.ops[opRead]) - m.controlReadNs
	}

	out := make(map[string]value, len(vals))
	for _, d := range perLayerUnits {
		out[d.Name] = value{Value: vals[d.Name], Unit: d.Unit}
	}
	for _, d := range endToEnd {
		if d.PerLayerOnly {
			out[d.Name] = value{Value: vals[d.Name], Unit: d.Unit}
		}
	}

	var flags []string
	if sp.workers <= 1 && nandBusy > ftlBusy {
		flags = append(flags, fmt.Sprintf(
			"nand.est_busy_s %.3f exceeds the traced ftl busy time %.3f: the device micro pattern is unrepresentative here",
			nandBusy, ftlBusy))
	}
	return out, flags
}
