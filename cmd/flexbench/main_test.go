package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestRunFig1(t *testing.T) {
	var sb strings.Builder
	if err := run(&sb, options{exp: "fig1", requests: 100, seed: 1, fig4Blocks: 2}); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"Figure 1", "LSB page program", "4.0x"} {
		if !strings.Contains(sb.String(), want) {
			t.Errorf("output missing %q", want)
		}
	}
}

func TestRunTable1(t *testing.T) {
	var sb strings.Builder
	if err := run(&sb, options{exp: "table1", requests: 100, seed: 1, fig4Blocks: 2}); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"OLTP", "Fileserver", "Very high"} {
		if !strings.Contains(sb.String(), want) {
			t.Errorf("output missing %q", want)
		}
	}
}

func TestRunFig4Tiny(t *testing.T) {
	var sb strings.Builder
	if err := run(&sb, options{exp: "fig4a", requests: 100, seed: 1, fig4Blocks: 2, workers: 2}); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"Figure 4", "RPSfull", "ECC failure"} {
		if !strings.Contains(sb.String(), want) {
			t.Errorf("output missing %q", want)
		}
	}
}

// TestRunFig4RejectsEmptyStudy: a Figure 4 with no blocks is an error, not
// an all-zero figure under a passing shape check (or a panic).
func TestRunFig4RejectsEmptyStudy(t *testing.T) {
	for _, blocks := range []int{0, -1} {
		var sb strings.Builder
		if err := run(&sb, options{exp: "fig4", requests: 100, seed: 1, fig4Blocks: blocks, workers: 1}); err == nil {
			t.Errorf("-fig4-blocks %d accepted:\n%s", blocks, sb.String())
		}
	}
}

func TestRunUnknownExperiment(t *testing.T) {
	var sb strings.Builder
	if err := run(&sb, options{exp: "figZZ", requests: 100, seed: 1, fig4Blocks: 2}); err == nil {
		t.Error("unknown experiment accepted")
	}
}

// TestRunFig8ZeroBaselinePrintsNA: at a scale where no cell erases a block,
// Figure 8(b)'s ratios and the erasure headlines have a zero baseline. They
// print n/a, never NaN or Inf, and the -metrics dump still marshals.
func TestRunFig8ZeroBaselinePrintsNA(t *testing.T) {
	path := filepath.Join(t.TempDir(), "metrics.json")
	var sb strings.Builder
	if err := run(&sb, options{exp: "fig8", requests: 300, seed: 42, workers: 2, metrics: path}); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, bad := range []string{"NaN", "Inf"} {
		if strings.Contains(out, bad) {
			t.Errorf("Figure 8 prints %q:\n%s", bad, out)
		}
	}
	for _, want := range []string{"  pageFTL           n/a", "erasures vs parityFTL: n/a", "erasures vs rtfFTL : n/a"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q (did a cell erase a block?):\n%s", want, out)
		}
	}
}

// TestRunMetricsDump: -metrics writes a JSON object keyed by experiment.
func TestRunMetricsDump(t *testing.T) {
	path := filepath.Join(t.TempDir(), "metrics.json")
	var sb strings.Builder
	if err := run(&sb, options{exp: "table1", requests: 100, seed: 1, fig4Blocks: 2, workers: 1, metrics: path}); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var snap map[string]json.RawMessage
	if err := json.Unmarshal(raw, &snap); err != nil {
		t.Fatalf("metrics dump not valid JSON: %v", err)
	}
	if _, ok := snap["table1"]; !ok {
		t.Errorf("dump missing table1 snapshot: %v", snap)
	}
	var infos map[string]struct {
		Workers int      `json:"workers"`
		WallMS  float64  `json:"wall_ms"`
		Schemes []string `json:"schemes"`
	}
	if err := json.Unmarshal(snap["runinfo"], &infos); err != nil {
		t.Fatalf("runinfo missing or malformed: %v", err)
	}
	if infos["table1"].Workers != 1 {
		t.Errorf("table1 runinfo workers = %d, want 1", infos["table1"].Workers)
	}
	if !strings.Contains(sb.String(), "metrics: wrote 1 experiment snapshot") {
		t.Errorf("run output missing metrics summary:\n%s", sb.String())
	}
}

// TestRunMetricsSchemes: FTL-driving experiments stamp the scheme registry
// names they simulated into their runinfo block.
func TestRunMetricsSchemes(t *testing.T) {
	path := filepath.Join(t.TempDir(), "metrics.json")
	var sb strings.Builder
	if err := run(&sb, options{exp: "fig8a", requests: 400, seed: 1, fig4Blocks: 2, metrics: path}); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var snap map[string]json.RawMessage
	if err := json.Unmarshal(raw, &snap); err != nil {
		t.Fatal(err)
	}
	var infos map[string]struct {
		Schemes []string `json:"schemes"`
	}
	if err := json.Unmarshal(snap["runinfo"], &infos); err != nil {
		t.Fatal(err)
	}
	got := infos["fig8"].Schemes
	if len(got) != 4 {
		t.Fatalf("fig8 runinfo schemes = %v, want the 4 MLC FTLs", got)
	}
	want := map[string]bool{"pageFTL": true, "parityFTL": true, "rtfFTL": true, "flexFTL": true}
	for _, s := range got {
		if !want[s] {
			t.Errorf("unexpected scheme %q in runinfo", s)
		}
	}
}

// TestRunSensitivitySeed: -seed reaches the sensitivity sweep. The dump
// records the seed the sweep ran with, and the table differs from the one
// the default seed renders.
func TestRunSensitivitySeed(t *testing.T) {
	path := filepath.Join(t.TempDir(), "metrics.json")
	var seed7, seed42 strings.Builder
	if err := run(&seed7, options{exp: "sensitivity", requests: 100, seed: 7, fig4Blocks: 2, metrics: path}); err != nil {
		t.Fatal(err)
	}
	if err := run(&seed42, options{exp: "sensitivity", requests: 100, seed: 42, fig4Blocks: 2}); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var snap struct {
		Sensitivity struct {
			Config struct{ Seed uint64 }
		} `json:"sensitivity"`
	}
	if err := json.Unmarshal(raw, &snap); err != nil {
		t.Fatal(err)
	}
	if got := snap.Sensitivity.Config.Seed; got != 7 {
		t.Errorf("sensitivity dump Config.Seed = %d, want 7", got)
	}
	table7, _, _ := strings.Cut(seed7.String(), "metrics:")
	if table7 == seed42.String() {
		t.Errorf("sensitivity table at seed 7 equals the seed-42 table:\n%s", table7)
	}
}

// TestRunMonteCarloSeed: -seed reaches the Monte-Carlo exhibits, so a
// different seed redraws Figure 4 and the stress sweep.
func TestRunMonteCarloSeed(t *testing.T) {
	for _, exp := range []string{"fig4a", "stress"} {
		var seed7, seed42 strings.Builder
		if err := run(&seed7, options{exp: exp, requests: 100, seed: 7, fig4Blocks: 2}); err != nil {
			t.Fatal(err)
		}
		if err := run(&seed42, options{exp: exp, requests: 100, seed: 42, fig4Blocks: 2}); err != nil {
			t.Fatal(err)
		}
		if seed7.String() == seed42.String() {
			t.Errorf("%s output at seed 7 equals seed 42's:\n%s", exp, seed7.String())
		}
	}
}

// TestRunStdoutDeterministic: stdout carries simulated results only — no
// wall time — so one exhibit prints the same bytes at any worker count.
func TestRunStdoutDeterministic(t *testing.T) {
	for _, exp := range []string{"fig8a", "fig4a"} {
		var serial, parallel strings.Builder
		if err := run(&serial, options{exp: exp, requests: 400, seed: 42, fig4Blocks: 2, workers: 1}); err != nil {
			t.Fatal(err)
		}
		if err := run(&parallel, options{exp: exp, requests: 400, seed: 42, fig4Blocks: 2, workers: 2}); err != nil {
			t.Fatal(err)
		}
		if serial.String() != parallel.String() {
			t.Errorf("%s stdout differs between 1 and 2 workers:\n%s\n---\n%s", exp, serial.String(), parallel.String())
		}
	}
}
