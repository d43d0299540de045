package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite golden files")

func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *update {
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden %s (run with -update): %v", path, err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("output differs from golden %s\n--- got ---\n%s\n--- want ---\n%s", path, got, want)
	}
}

// TestReportGolden pins the report format: any change to the table layout
// must update the golden deliberately.
func TestReportGolden(t *testing.T) {
	var out, errw bytes.Buffer
	code := realMain([]string{"report", "testdata/run_a.json"}, &out, &errw)
	if code != 0 {
		t.Fatalf("report exit=%d stderr=%s", code, errw.String())
	}
	checkGolden(t, "report_a.golden", out.Bytes())
}

// TestReportRegistryWithoutHistograms: a dump whose registry snapshot has
// only its counters and gauges (the shape flexsim writes) still gets the
// blame section; an older dump's extra histogram key is ignored.
func TestReportRegistryWithoutHistograms(t *testing.T) {
	raw, err := os.ReadFile("testdata/run_a.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc map[string]any
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	delete(doc["registry"].(map[string]any), "Histograms")
	path := filepath.Join(t.TempDir(), "run.json")
	if b, err := json.Marshal(doc); err != nil {
		t.Fatal(err)
	} else if err := os.WriteFile(path, b, 0o644); err != nil {
		t.Fatal(err)
	}
	var out, errw bytes.Buffer
	if code := realMain([]string{"report", path}, &out, &errw); code != 0 {
		t.Fatalf("report exit=%d stderr=%s", code, errw.String())
	}
	want, err := os.ReadFile("testdata/report_a.golden")
	if err != nil {
		t.Fatal(err)
	}
	_, got, _ := strings.Cut(out.String(), "\n")
	_, rest, _ := strings.Cut(string(want), "\n")
	if got != rest {
		t.Errorf("report without Histograms differs from the golden below its title:\n%s\n--- want ---\n%s", got, rest)
	}
}

// TestCompareIdentical is the CI smoke contract: a dump compared with itself
// reports zero delta on every run and exits 0.
func TestCompareIdentical(t *testing.T) {
	var out, errw bytes.Buffer
	code := realMain([]string{"compare", "testdata/run_a.json", "testdata/run_a.json"}, &out, &errw)
	if code != 0 {
		t.Fatalf("identical compare exit=%d stderr=%s\n%s", code, errw.String(), out.String())
	}
	checkGolden(t, "compare_identical.golden", out.Bytes())
	if bytes.Contains(out.Bytes(), []byte("FAIL")) {
		t.Errorf("identical compare reported FAIL:\n%s", out.String())
	}
}

// TestCompareRegression: run_b regresses flexFTL write-ack p99 by 20% and
// WAF by 8%, past the default 10%/5% thresholds — compare must exit 1 and
// mark the offending run.
func TestCompareRegression(t *testing.T) {
	var out, errw bytes.Buffer
	code := realMain([]string{"compare", "testdata/run_a.json", "testdata/run_b.json"}, &out, &errw)
	if code != 1 {
		t.Fatalf("regressed compare exit=%d, want 1\n%s", code, out.String())
	}
	if !bytes.Contains(out.Bytes(), []byte("<< FAIL")) {
		t.Errorf("regressed run not marked FAIL:\n%s", out.String())
	}
	checkGolden(t, "compare_regression.golden", out.Bytes())
}

// TestCompareLooseThresholds: the same regression passes when the caller
// widens the gates.
func TestCompareLooseThresholds(t *testing.T) {
	var out, errw bytes.Buffer
	code := realMain([]string{"compare", "-p99", "25", "-waf", "10", "testdata/run_a.json", "testdata/run_b.json"}, &out, &errw)
	if code != 0 {
		t.Fatalf("loose-threshold compare exit=%d, want 0\n%s", code, out.String())
	}
}

func TestUsageAndBadInput(t *testing.T) {
	cases := [][]string{
		nil,
		{"report"},
		{"report", "testdata/definitely-missing.json"},
		{"compare", "onlyone.json"},
		{"frobnicate"},
	}
	for _, args := range cases {
		var out, errw bytes.Buffer
		if code := realMain(args, &out, &errw); code != 2 {
			t.Errorf("realMain(%q) exit=%d, want 2", args, code)
		}
	}
}

// TestCollectFindsNestedRuns checks the walk descends arrays and objects and
// keys each run by its JSON path.
func TestCollectFindsNestedRuns(t *testing.T) {
	d, err := loadDump("testdata/run_a.json")
	if err != nil {
		t.Fatal(err)
	}
	runs, reg := d.runs, d.reg
	if len(runs) != 2 {
		t.Fatalf("found %d runs, want 2", len(runs))
	}
	if runs[0].path != "table1/0" || runs[1].path != "table1/1" {
		t.Errorf("paths = %q, %q", runs[0].path, runs[1].path)
	}
	if runs[0].run.FTLName != "pageFTL" || runs[1].run.FTLName != "flexFTL" {
		t.Errorf("schemes = %q, %q", runs[0].run.FTLName, runs[1].run.FTLName)
	}
	if reg == nil {
		t.Fatal("registry snapshot not found")
	}
	if reg.Counters["blame.gc_us"] != 184230 {
		t.Errorf("blame.gc_us = %d", reg.Counters["blame.gc_us"])
	}
}

// TestCompareRefusesDisjointDumps: a compare that matches no run checks
// nothing, so it must refuse with exit 2 and name both files, in either
// order. One side is flexsim-shaped (one run under "single"); the other is
// a flexbench table1-shaped dump that carries no run results at all.
func TestCompareRefusesDisjointDumps(t *testing.T) {
	dir := t.TempDir()
	sim := filepath.Join(dir, "sim.json")
	table := filepath.Join(dir, "table1.json")
	simDoc := `{"single": {"FTLName": "flexFTL", "Workload": "Varmail", "Metrics": {"Requests": 10}, "Stats": {"HostWrites": 4}},
 "runinfo": {"single": {"workers": 1, "wall_ms": 2.5, "schemes": ["flexFTL"]}}}`
	tableDoc := `{"table1": [{"Name": "OLTP", "ReadFraction": 0.7}], "runinfo": {"table1": {"workers": 1, "wall_ms": 1.0}}}`
	for path, doc := range map[string]string{sim: simDoc, table: tableDoc} {
		if err := os.WriteFile(path, []byte(doc), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	for _, pair := range [][2]string{{sim, table}, {table, sim}} {
		var out, errw bytes.Buffer
		code := realMain([]string{"compare", pair[0], pair[1]}, &out, &errw)
		if code != 2 {
			t.Fatalf("compare %s %s exit=%d, want 2\n%s", pair[0], pair[1], code, out.String())
		}
		for _, f := range pair {
			if !bytes.Contains(errw.Bytes(), []byte(f)) {
				t.Errorf("stderr does not name %s: %s", f, errw.String())
			}
		}
	}
	// The flexsim-shaped dump still compares with itself.
	var out, errw bytes.Buffer
	if code := realMain([]string{"compare", sim, sim}, &out, &errw); code != 0 {
		t.Fatalf("self compare exit=%d stderr=%s\n%s", code, errw.String(), out.String())
	}
}
