package ssd

import (
	"bytes"
	"encoding/json"
	"reflect"
	"testing"

	"flexftl/internal/ftl"
	"flexftl/internal/metrics"
	"flexftl/internal/obs"
	"flexftl/internal/sim"
	"flexftl/internal/workload"
)

// runVarmail drives a fresh flexFTL system through a short Varmail run,
// optionally under a recorder, and returns the measurements.
func runVarmail(t *testing.T, rec *obs.Recorder) RunResult {
	t.Helper()
	return runVarmailOn(t, newSystem(t, "flexFTL"), rec)
}

func runVarmailOn(t *testing.T, sys *System, rec *obs.Recorder) RunResult {
	t.Helper()
	if _, err := sys.Prefill(); err != nil {
		t.Fatal(err)
	}
	sys.SetRecorder(rec)
	gen, err := workload.New(workload.Varmail(), sys.F.LogicalPages(), 2500, 17)
	if err != nil {
		t.Fatal(err)
	}
	res, err := sys.Run(gen)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestTracingDoesNotChangeResults is the guard behind the observability
// layer's core contract: the recorder only observes the virtual timeline, so
// an instrumented run must produce results identical to an uninstrumented
// one.
func TestTracingDoesNotChangeResults(t *testing.T) {
	plain := runVarmail(t, nil)

	var buf bytes.Buffer
	samp := obs.NewSampler(10 * sim.Millisecond)
	rec := obs.NewRecorder(obs.Options{
		Sink:    obs.NewChromeSink(&buf),
		Sampler: samp,
	})
	traced := runVarmail(t, rec)
	if err := rec.Close(); err != nil {
		t.Fatal(err)
	}

	if !reflect.DeepEqual(plain, traced) {
		t.Errorf("tracing changed the results:\nplain:  %+v\ntraced: %+v", plain, traced)
	}
	if rec.Emitted() == 0 {
		t.Fatal("traced run emitted no events")
	}
	if len(samp.Rows()) == 0 {
		t.Fatal("traced run sampled no rows")
	}
}

// chromeRecord is one trace_event entry as the integration test reads it.
type chromeRecord struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	TS   int64          `json:"ts"`
	Dur  int64          `json:"dur"`
	PID  int            `json:"pid"`
	TID  int            `json:"tid"`
	Args map[string]any `json:"args"`
}

// TestChromeTraceEndToEnd runs a short flexFTL workload with a Chrome sink
// and asserts the emitted trace is loadable: well-formed trace_event JSON,
// named device tracks, and per-track monotonically non-decreasing
// timestamps on the device domains (chips pid 1, channels pid 2), which the
// device model guarantees by construction via its readyAt/chanFree
// serialization.
func TestChromeTraceEndToEnd(t *testing.T) {
	var buf bytes.Buffer
	samp := obs.NewSampler(5 * sim.Millisecond)
	rec := obs.NewRecorder(obs.Options{
		Sink:    obs.NewChromeSink(&buf),
		Sampler: samp,
	})
	runVarmail(t, rec)
	if err := rec.Close(); err != nil {
		t.Fatal(err)
	}

	var trace struct {
		TraceEvents []chromeRecord `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &trace); err != nil {
		t.Fatalf("trace not valid JSON: %v", err)
	}
	if len(trace.TraceEvents) == 0 {
		t.Fatal("empty trace")
	}

	seenKind := make(map[string]int)
	seenMeta := make(map[string]bool)
	lastTS := make(map[[2]int]int64) // (pid, tid) -> last ts
	for i, e := range trace.TraceEvents {
		switch e.Ph {
		case "M":
			if name, ok := e.Args["name"].(string); ok {
				seenMeta[name] = true
			}
		case "X", "i":
			seenKind[e.Name]++
			key := [2]int{e.PID, e.TID}
			// Device tracks (chips pid 1, channels pid 2) serialize ops, so
			// their timelines must never step backwards. FTL decision events
			// (pid 3) interleave completion-time and admission-time stamps
			// and are exempt.
			if e.PID == 1 || e.PID == 2 {
				if last, ok := lastTS[key]; ok && e.TS < last {
					t.Fatalf("record %d: track pid=%d tid=%d went backwards: %d after %d",
						i, e.PID, e.TID, e.TS, last)
				}
				lastTS[key] = e.TS
			}
			if e.Ph == "X" && e.Dur < 0 {
				t.Errorf("record %d: negative duration %d", i, e.Dur)
			}
		default:
			t.Errorf("record %d: unexpected phase %q", i, e.Ph)
		}
	}

	// A flexFTL Varmail run must exercise the core taxonomy.
	for _, want := range []string{"program_lsb", "program_msb", "read", "bus_xfer", "policy", "block_fast_open"} {
		if seenKind[want] == 0 {
			t.Errorf("no %q events in trace (kinds: %v)", want, seenKind)
		}
	}
	for _, want := range []string{"nand chips", "channel buses"} {
		if !seenMeta[want] {
			t.Errorf("missing %q process metadata", want)
		}
	}

	// The sampler recorded the paper's internal-state series.
	names := samp.Names()
	has := func(n string) bool {
		for _, x := range names {
			if x == n {
				return true
			}
		}
		return false
	}
	for _, want := range []string{"u", "free_blocks", "q", "sbq_depth"} {
		if !has(want) {
			t.Errorf("sampler missing series %q (got %v)", want, names)
		}
	}
	if rows := samp.Rows(); len(rows) < 2 {
		t.Errorf("only %d sample rows", len(rows))
	}
	if q := samp.Series("q"); len(q) > 0 && q[len(q)-1] < 0 {
		t.Errorf("quota series negative: %v", q[len(q)-1])
	}
}

// TestRegistryPopulatedByRun asserts an instrumented run fills the blame
// counters and the buffer's utilization gauge, while the device counts and
// the exact latency report carry the per-op numbers.
func TestRegistryPopulatedByRun(t *testing.T) {
	rec := obs.NewRecorder(obs.Options{})
	sys := newSystem(t, "flexFTL")
	res := runVarmailOn(t, sys, rec)
	snap := rec.Registry().Snapshot()
	if c := sys.F.(ftl.FTL).Device().Counts(); c.ProgramsLSB <= 0 || c.Reads <= 0 {
		t.Errorf("device counts = %+v, want LSB programs and reads", c)
	}
	for name, p := range map[string]metrics.Percentiles{
		"read": res.Latency.Read, "write-ack": res.Latency.WriteAck, "write-flush": res.Latency.WriteFlush,
	} {
		if p.Count == 0 || p.P99 < p.P50 || p.Max < p.P99 {
			t.Errorf("%s latency implausible: %+v", name, p)
		}
	}
	if p := res.Latency.Read; p.P50 <= 0 {
		t.Errorf("read p50 = %v, want > 0", p.P50)
	}
	if got, want := res.Latency.Read.Count+res.Latency.WriteAck.Count+res.Latency.Trim.Count, res.Metrics.Requests; got != want {
		t.Errorf("latency classes count %d requests, metrics %d", got, want)
	}
	if _, ok := snap.Gauges["buffer.u"]; !ok {
		t.Errorf("buffer.u gauge missing (have %v)", snap.Gauges)
	}

	// Blame counters: every cause has a registered counter; a flexFTL run
	// must charge host media time and the two-phase reprogram penalty, and
	// its pair-parity backups must extend some completions.
	for c := obs.CauseHost; c < obs.CauseCount; c++ {
		if _, ok := snap.Counters[obs.BusyCounterName("nand", c)]; !ok {
			t.Errorf("busy counter %q missing", obs.BusyCounterName("nand", c))
		}
	}
	if v := snap.Counters[obs.BusyCounterName("nand", obs.CauseHost)]; v <= 0 {
		t.Errorf("nand.busy_us.host = %d, want > 0", v)
	}
	if v := snap.Counters[obs.BlameCounterName(obs.CauseReprogram)]; v <= 0 {
		t.Errorf("blame.reprogram_us = %d, want > 0 (host MSB writes happened)", v)
	}
	if v := snap.Counters[obs.BusyCounterName("nand", obs.CauseBackup)]; v <= 0 {
		t.Errorf("nand.busy_us.backup = %d, want > 0 (flexFTL writes pair parity)", v)
	}
	for _, name := range []string{
		obs.BlameCounterName(obs.CauseGC),
		obs.BlameCounterName(obs.CauseBackup),
		obs.BlameCounterName(obs.CauseBufferFull),
	} {
		if _, ok := snap.Counters[name]; !ok {
			t.Errorf("blame counter %q missing (have %v)", name, snap.Counters)
		}
	}
}

// TestLatencyAndWAFAlwaysOn: the percentile report and WAF ride on every run,
// recorder or not, and agree with the stats the schemes keep.
func TestLatencyAndWAFAlwaysOn(t *testing.T) {
	res := runVarmail(t, nil)
	if res.Latency.Read.Count != res.Metrics.Reads {
		t.Errorf("read percentile count %d != reads %d", res.Latency.Read.Count, res.Metrics.Reads)
	}
	if res.Latency.WriteAck.Count != res.Metrics.Writes {
		t.Errorf("write-ack percentile count %d != writes %d", res.Latency.WriteAck.Count, res.Metrics.Writes)
	}
	lat := res.Latency.WriteFlush
	if !(lat.P50 <= lat.P90 && lat.P90 <= lat.P95 && lat.P95 <= lat.P99 &&
		lat.P99 <= lat.P999 && lat.P999 <= lat.Max) {
		t.Errorf("write-flush percentiles not monotone: %+v", lat)
	}
	if lat.Max <= 0 {
		t.Errorf("write-flush max = %v, want > 0", lat.Max)
	}
	if got, want := res.WAF, res.Stats.WriteAmplification(); got != want {
		t.Errorf("WAF = %v, Stats.WriteAmplification() = %v", got, want)
	}
	if res.WAF < 1 {
		t.Errorf("WAF = %v, want >= 1 (media programs include every host write)", res.WAF)
	}
}

// TestSamplerCarriesAccountingSeries: the windowed accounting streams (WAF,
// GC copy volume, erase count, wear spread) sample alongside the
// internal-state series.
func TestSamplerCarriesAccountingSeries(t *testing.T) {
	samp := obs.NewSampler(5 * sim.Millisecond)
	rec := obs.NewRecorder(obs.Options{Sampler: samp})
	runVarmail(t, rec)
	names := samp.Names()
	has := func(n string) bool {
		for _, x := range names {
			if x == n {
				return true
			}
		}
		return false
	}
	for _, want := range []string{"waf", "gc_copy_pages", "erase_count", "wear_spread"} {
		if !has(want) {
			t.Errorf("sampler missing accounting series %q (got %v)", want, names)
		}
	}
	if waf := samp.Series("waf"); len(waf) > 0 && waf[len(waf)-1] < 1 {
		t.Errorf("final sampled WAF = %v, want >= 1", waf[len(waf)-1])
	}
	if ec := samp.Series("erase_count"); len(ec) > 1 {
		for i := 1; i < len(ec); i++ {
			if ec[i] < ec[i-1] {
				t.Errorf("erase_count series not monotone at %d: %v < %v", i, ec[i], ec[i-1])
				break
			}
		}
	}
}
