package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"flexftl/internal/workload"
)

func TestRunSmall(t *testing.T) {
	var sb strings.Builder
	o := options{FTL: "flexFTL", Workload: "Varmail", Requests: 3000, Seed: 7, GCPolicy: "greedy"}
	if err := run(&sb, o); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{"flexFTL", "IOPS", "erases", "Varmail"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q", want)
		}
	}
}

func TestRunUnknownFTL(t *testing.T) {
	var sb strings.Builder
	if err := run(&sb, options{FTL: "nopeFTL", Workload: "Varmail", Requests: 100, Seed: 1, GCPolicy: "greedy"}); err == nil {
		t.Error("unknown FTL accepted")
	}
}

// TestRunTLCRejectsReliability: nflexTLC has no reliability model to mount,
// so -rel on it must say so instead of running a plain simulation with no
// reliability section.
func TestRunTLCRejectsReliability(t *testing.T) {
	for _, detectOnly := range []bool{false, true} {
		var sb strings.Builder
		o := options{FTL: "nflexTLC", Workload: "Varmail", Requests: 100, Seed: 1, GCPolicy: "greedy",
			Rel: true, RelWear: 6000, RelDetectOnly: detectOnly}
		err := run(&sb, o)
		if err == nil {
			t.Fatalf("detect-only=%v: -rel accepted on nflexTLC", detectOnly)
		}
		for _, want := range []string{"nflexTLC", "reliability model", "3-bit"} {
			if !strings.Contains(err.Error(), want) {
				t.Errorf("detect-only=%v: error %q does not mention %q", detectOnly, err, want)
			}
		}
	}
	var sb strings.Builder
	if err := run(&sb, options{FTL: "nflexTLC", Workload: "Varmail", Requests: 100, Seed: 1, GCPolicy: "greedy"}); err != nil {
		t.Errorf("nflexTLC without -rel: %v", err)
	}
}

func TestRunUnknownGCPolicy(t *testing.T) {
	var sb strings.Builder
	if err := run(&sb, options{FTL: "pageFTL", Workload: "OLTP", Requests: 100, Seed: 1, GCPolicy: "nope"}); err == nil {
		t.Error("unknown GC policy accepted")
	}
}

func TestRunCostBenefitAndPredictive(t *testing.T) {
	var sb strings.Builder
	o := options{FTL: "flexFTL", Workload: "OLTP", Requests: 1000, Seed: 1, GCPolicy: "costbenefit", Predictive: true}
	if err := run(&sb, o); err != nil {
		t.Fatal(err)
	}
}

func TestRunUnknownWorkload(t *testing.T) {
	var sb strings.Builder
	if err := run(&sb, options{FTL: "pageFTL", Workload: "nope", Requests: 100, Seed: 1, GCPolicy: "greedy"}); err == nil {
		t.Error("unknown workload accepted")
	}
}

// TestReplayBadTraceFails: a malformed replay record fails the run with its
// record number; it neither panics (a negative page) nor ends the run early
// and reports success (an unknown op, a non-integer field).
func TestReplayBadTraceFails(t *testing.T) {
	for _, rows := range []string{
		"10,W,-5,1\n",
		"0,W,1,1\n10,X,2,1\n20,W,3,oops\n30,W,4,1\n40,R,1,1\n",
	} {
		path := filepath.Join(t.TempDir(), "bad.csv")
		if err := os.WriteFile(path, []byte("arrival_us,op,page,pages\n"+rows), 0o644); err != nil {
			t.Fatal(err)
		}
		var sb strings.Builder
		err := run(&sb, options{FTL: "pageFTL", GCPolicy: "greedy", Replay: path})
		if err == nil || !strings.Contains(err.Error(), "record") {
			t.Errorf("replay of %q: err = %v, want a malformed-record error", rows, err)
		}
	}
}

// TestReplayRefusesGeneratorFlags: next to -replay, each flag that only
// configures the workload generator is refused with an error that names
// it, instead of being ignored.
func TestReplayRefusesGeneratorFlags(t *testing.T) {
	for _, args := range [][]string{{"-workload", "OLTP"}, {"-requests", "5"}, {"-seed", "3"}, {"-dump-workload", "x.csv"}} {
		if _, _, err := parseFlags(append([]string{"-replay", "t.csv"}, args...)); err == nil || !strings.Contains(err.Error(), args[0]) {
			t.Errorf("-replay t.csv %v: err = %v, want one naming %s", args, err, args[0])
		}
		if _, _, err := parseFlags(args); err != nil {
			t.Errorf("%v without -replay: %v", args, err)
		}
	}
}

// TestWorkloadDumpAndReplay: -dump-workload writes a CSV, -replay reproduces
// the exact run from it.
func TestWorkloadDumpAndReplay(t *testing.T) {
	dir := t.TempDir()
	dump := filepath.Join(dir, "t.csv")
	var a strings.Builder
	if err := run(&a, options{FTL: "pageFTL", Workload: "OLTP", Requests: 2000, Seed: 3, GCPolicy: "greedy", DumpWorkload: dump}); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(dump); err != nil {
		t.Fatalf("workload dump not written: %v", err)
	}
	var b strings.Builder
	if err := run(&b, options{FTL: "pageFTL", GCPolicy: "greedy", Replay: dump}); err != nil {
		t.Fatal(err)
	}
	pick := func(out, key string) string {
		for _, line := range strings.Split(out, "\n") {
			if strings.HasPrefix(line, key) {
				return line
			}
		}
		return ""
	}
	for _, key := range []string{"IOPS", "programs", "erases"} {
		la, lb := pick(a.String(), key), pick(b.String(), key)
		if la == "" || la != lb {
			t.Errorf("replay diverged on %q:\n gen   : %s\n replay: %s", key, la, lb)
		}
	}
}

// TestReplayBinaryEqualsCSV: -replay reads the binary trace flextrace writes
// by default as well as CSV, picking the format from the extension, and one
// trace in either format gives the identical report.
func TestReplayBinaryEqualsCSV(t *testing.T) {
	dir := t.TempDir()
	var outs []string
	for _, path := range []string{filepath.Join(dir, "o.bin"), filepath.Join(dir, "o.csv")} {
		gen, err := workload.New(workload.OLTP(), 1<<20, 2000, 42)
		if err != nil {
			t.Fatal(err)
		}
		f, err := os.Create(path)
		if err != nil {
			t.Fatal(err)
		}
		if workload.FormatOf("", path) == "csv" {
			_, err = workload.WriteCSV(f, gen)
		} else {
			_, err = workload.WriteBinary(f, gen)
		}
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			t.Fatal(err)
		}
		var sb strings.Builder
		if err := run(&sb, options{FTL: "flexFTL", GCPolicy: "greedy", Replay: path}); err != nil {
			t.Fatalf("replay %s: %v", filepath.Base(path), err)
		}
		outs = append(outs, sb.String())
	}
	if outs[0] != outs[1] {
		t.Errorf("binary and CSV replays of one trace differ:\n%s\n---\n%s", outs[0], outs[1])
	}
}

// TestRunWithChromeTrace: -trace produces a loadable Chrome trace and the
// sampled series CSV carries the paper's internal-state columns.
func TestRunWithChromeTrace(t *testing.T) {
	dir := t.TempDir()
	trace := filepath.Join(dir, "run.json")
	samples := filepath.Join(dir, "series.csv")
	var sb strings.Builder
	o := options{
		FTL: "flexFTL", Workload: "Varmail", Requests: 2000, Seed: 11, GCPolicy: "greedy",
		Trace: trace, TraceFormat: "chrome", Sample: 5 * time.Millisecond, SampleOut: samples,
	}
	if err := run(&sb, o); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(trace)
	if err != nil {
		t.Fatal(err)
	}
	var parsed struct {
		TraceEvents []json.RawMessage `json:"traceEvents"`
	}
	if err := json.Unmarshal(raw, &parsed); err != nil {
		t.Fatalf("trace not valid JSON: %v", err)
	}
	if len(parsed.TraceEvents) == 0 {
		t.Error("trace has no events")
	}
	csv, err := os.ReadFile(samples)
	if err != nil {
		t.Fatal(err)
	}
	header := strings.SplitN(string(csv), "\n", 2)[0]
	for _, col := range []string{"t_us", "u", "q", "sbq_depth", "free_blocks"} {
		if !strings.Contains(header, col) {
			t.Errorf("sample CSV header %q missing column %q", header, col)
		}
	}
	if !strings.Contains(sb.String(), "trace    : wrote") {
		t.Errorf("run output missing trace summary:\n%s", sb.String())
	}
}

// TestRunWithJSONLTrace: the jsonl format emits one JSON object per line.
func TestRunWithJSONLTrace(t *testing.T) {
	trace := filepath.Join(t.TempDir(), "run.jsonl")
	var sb strings.Builder
	o := options{
		FTL: "pageFTL", Workload: "OLTP", Requests: 500, Seed: 2, GCPolicy: "greedy",
		Trace: trace, TraceFormat: "jsonl",
	}
	if err := run(&sb, o); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(trace)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(raw)), "\n")
	if len(lines) == 0 {
		t.Fatal("jsonl trace empty")
	}
	for i, line := range lines[:min(len(lines), 50)] {
		var obj map[string]any
		if err := json.Unmarshal([]byte(line), &obj); err != nil {
			t.Fatalf("line %d not JSON: %v", i, err)
		}
	}
}

// TestRunMetricsDump: -metrics writes a flexstat-readable dump carrying the
// run result, the runinfo scheme stamp, and (with tracing on) the registry.
func TestRunMetricsDump(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.json")
	var sb strings.Builder
	o := options{
		FTL: "flexFTL", Workload: "Varmail", Requests: 2000, Seed: 5, GCPolicy: "greedy",
		Metrics: path, Sample: 5 * time.Millisecond,
	}
	if err := run(&sb, o); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Single struct {
			FTLName  string
			Workload string
			WAF      float64
			Latency  struct {
				WriteAck struct{ Count int64 }
			}
		} `json:"single"`
		RunInfo map[string]struct {
			Schemes []string `json:"schemes"`
		} `json:"runinfo"`
		Registry *struct {
			Counters map[string]int64
		} `json:"registry"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatalf("metrics dump not valid JSON: %v", err)
	}
	if doc.Single.FTLName != "flexFTL" || doc.Single.Workload != "Varmail" {
		t.Errorf("run result = %s/%s", doc.Single.FTLName, doc.Single.Workload)
	}
	if doc.Single.WAF < 1 {
		t.Errorf("WAF = %v, want >= 1", doc.Single.WAF)
	}
	if doc.Single.Latency.WriteAck.Count == 0 {
		t.Error("write-ack percentile count is zero")
	}
	if got := doc.RunInfo["single"].Schemes; len(got) != 1 || got[0] != "flexFTL" {
		t.Errorf("runinfo schemes = %v", got)
	}
	if doc.Registry == nil {
		t.Fatal("registry snapshot missing despite sampling being on")
	}
	if _, ok := doc.Registry.Counters["blame.gc_us"]; !ok {
		t.Errorf("registry counters missing blame.gc_us: %v", doc.Registry.Counters)
	}
	if !strings.Contains(sb.String(), "latency  : write-ack") {
		t.Errorf("run output missing latency line:\n%s", sb.String())
	}
}

// TestRunMetricsDumpNoTracing: without any tracing flag the dump carries no
// registry block but still has the run result.
func TestRunMetricsDumpNoTracing(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.json")
	var sb strings.Builder
	o := options{FTL: "pageFTL", Workload: "OLTP", Requests: 500, Seed: 2, GCPolicy: "greedy", Metrics: path}
	if err := run(&sb, o); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var doc map[string]json.RawMessage
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	if _, ok := doc["registry"]; ok {
		t.Error("registry block present without tracing")
	}
	if _, ok := doc["single"]; !ok {
		t.Error("single run result missing")
	}
}

// TestRunCPUProfile: -cpuprofile writes a gzip-compressed pprof file and
// leaves the report byte-identical to the same run without it.
func TestRunCPUProfile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "cpu.pprof")
	o := options{FTL: "flexFTL", Workload: "Varmail", Requests: 2000, Seed: 9, GCPolicy: "greedy"}
	var plain, profiled strings.Builder
	if err := run(&plain, o); err != nil {
		t.Fatal(err)
	}
	o.CPUProfile = path
	if err := run(&profiled, o); err != nil {
		t.Fatal(err)
	}
	if plain.String() != profiled.String() {
		t.Errorf("-cpuprofile changed the report:\n%s\n---\n%s", plain.String(), profiled.String())
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(raw) < 2 || raw[0] != 0x1f || raw[1] != 0x8b {
		t.Errorf("profile is not gzip (%d bytes)", len(raw))
	}
}

func TestRunUnknownTraceFormat(t *testing.T) {
	var sb strings.Builder
	o := options{
		FTL: "pageFTL", Workload: "OLTP", Requests: 100, Seed: 1, GCPolicy: "greedy",
		Trace: filepath.Join(t.TempDir(), "x"), TraceFormat: "xml",
	}
	if err := run(&sb, o); err == nil {
		t.Error("unknown trace format accepted")
	}
}

// TestGoldenOutputs: the report for each flag set CI runs is pinned to a
// golden under testdata/, recorded from the command line. {dir} stands for
// a scratch directory; the replay reads the dump written before it.
func TestGoldenOutputs(t *testing.T) {
	dir := t.TempDir()
	for _, tc := range []struct{ name, args string }{
		{"varmail", "-workload Varmail -requests 2000"},
		{"rel-wear", "-ftl flexFTL -workload OLTP -requests 10000 -seed 9 -rel -rel-wear 6000"},
		{"costbenefit", "-gc costbenefit -predictive-bgc -requests 2000"},
		{"detect-only", "-rel -rel-detect-only -requests 2000"},
		{"dump", "-ftl pageFTL -workload OLTP -requests 2000 -seed 3 -dump-workload {dir}/t.csv"},
		{"replay", "-ftl pageFTL -replay {dir}/t.csv"},
	} {
		args := strings.Fields(tc.args)
		for i := range args {
			args[i] = strings.ReplaceAll(args[i], "{dir}", dir)
		}
		o, _, err := parseFlags(args)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		var sb strings.Builder
		if err := run(&sb, o); err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		want, err := os.ReadFile(filepath.Join("testdata", tc.name+".golden"))
		if err != nil {
			t.Fatal(err)
		}
		if got := strings.ReplaceAll(sb.String(), dir, "{dir}"); got != string(want) {
			t.Errorf("flexsim %s drifted from testdata/%s.golden:\n%s\n--- want:\n%s", tc.args, tc.name, got, want)
		}
	}
}

// TestRelFlagsNeedRel: a -rel-* flag without -rel is refused with an error
// that names it instead of being ignored; after -rel each one parses.
func TestRelFlagsNeedRel(t *testing.T) {
	for _, args := range [][]string{{"-rel-wear", "6000"}, {"-rel-detect-only"}, {"-rel-seed", "3"}} {
		if _, _, err := parseFlags(args); err == nil || !strings.Contains(err.Error(), args[0]) {
			t.Errorf("%v without -rel: err = %v, want one naming %s", args, err, args[0])
		}
		if _, _, err := parseFlags(append([]string{"-rel"}, args...)); err != nil {
			t.Errorf("-rel %v: %v", args, err)
		}
	}
}
