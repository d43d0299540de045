// Command flexbench regenerates every table and figure of the paper's
// evaluation:
//
//	flexbench                  # full suite at the default (scaled) geometry
//	flexbench -exp fig8a       # one experiment
//	flexbench -full            # the paper's exact 16 GB geometry (slow)
//	flexbench -requests 200000 # longer runs
//	flexbench -workers 1       # serial simulation runs
//
// Experiments: all, fig1, table1, fig4 (fig4a, fig4b), fig4tlc, fig8 (fig8a,
// fig8b, fig8c, summary), ablation, stress, sensitivity, placement,
// reliability.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"slices"
	"strings"
	"time"

	"flexftl/internal/experiments"
	"flexftl/internal/nand"
	"flexftl/internal/par"
)

func main() {
	// The -requests default makes even the read-dominant workloads (OLTP,
	// Webserver) write into garbage collection, so Figure 8(b)'s erase
	// comparison is meaningful on every workload.
	var (
		exp      = flag.String("exp", "all", "experiment: "+strings.Join(experimentNames, "|"))
		requests = flag.Int("requests", 150000, "host requests per Figure 8 run")
		seed     = flag.Uint64("seed", 42, "workload seed")
		full     = flag.Bool("full", false, "use the paper's 16 GB geometry (slow)")
		blocks   = flag.Int("fig4-blocks", 90, "blocks per order for Figure 4")
		workers  = flag.Int("workers", 0, "simulation workers per experiment (0 = all cores, 1 = serial)")
		metrics  = flag.String("metrics", "", "write per-experiment result snapshots as JSON to this file")
	)
	flag.Parse()
	if err := run(os.Stdout, *exp, *requests, *seed, *full, *blocks, *workers, *metrics); err != nil {
		fmt.Fprintln(os.Stderr, "flexbench:", err)
		os.Exit(1)
	}
}

// experimentNames are the values -exp accepts.
var experimentNames = []string{"all", "fig1", "table1", "fig4", "fig4a", "fig4b", "fig4tlc",
	"fig8", "fig8a", "fig8b", "fig8c", "summary", "ablation", "stress", "sensitivity", "placement", "reliability"}

// runInfo records how an experiment executed, for the -metrics dump.
// Schemes lists the FTL registry names the experiment actually simulated
// (empty for reliability-model and workload-characterization experiments,
// which run no FTL).
type runInfo struct {
	Workers int      `json:"workers"`
	WallMS  float64  `json:"wall_ms"`
	Schemes []string `json:"schemes,omitempty"`
}

func run(w io.Writer, exp string, requests int, seed uint64, full bool, fig4Blocks, workers int, metricsPath string) error {
	if !slices.Contains(experimentNames, exp) {
		return fmt.Errorf("unknown experiment %q", exp)
	}
	want := func(name string) bool { return exp == "all" || exp == name }
	// snapshots collects each experiment's result object for -metrics;
	// infos records worker count and wall-clock alongside.
	snapshots := make(map[string]any)
	infos := make(map[string]runInfo)
	record := func(name string, start time.Time, workers int, schemes []string, result any) {
		snapshots[name] = result
		infos[name] = runInfo{
			Workers: workers,
			WallMS:  float64(time.Since(start).Microseconds()) / 1000,
			Schemes: schemes,
		}
	}

	if want("fig1") {
		experiments.Rule(w, "Figure 1")
		experiments.RenderFig1(w, nand.DefaultTiming())
		if err := experiments.RenderFig1Distributions(w, seed); err != nil {
			return err
		}
	}
	if want("table1") {
		experiments.Rule(w, "Table 1")
		start := time.Now()
		rows, err := experiments.RunTable1(1<<20, 50000, seed)
		if err != nil {
			return err
		}
		record("table1", start, 1, nil, rows)
		experiments.RenderTable1(w, rows)
	}
	if want("fig4a") || want("fig4b") || (exp == "fig4") {
		experiments.Rule(w, "Figure 4")
		cfg := experiments.DefaultFig4Config()
		cfg.Blocks = fig4Blocks
		cfg.Workers = workers
		start := time.Now()
		res, err := experiments.RunFig4(cfg)
		if err != nil {
			return err
		}
		record("fig4", start, par.Workers(workers), nil, res)
		experiments.RenderFig4(w, res)
		fmt.Fprintf(w, "  (%d blocks/order simulated in %v)\n", cfg.Blocks, time.Since(start).Round(time.Millisecond))
	}
	if want("fig4tlc") {
		experiments.Rule(w, "TLC extension (Section 1 claim)")
		cfg := experiments.DefaultFig4TLCConfig()
		cfg.Workers = workers
		start := time.Now()
		res, err := experiments.RunFig4TLC(cfg)
		if err != nil {
			return err
		}
		record("fig4tlc", start, par.Workers(workers), nil, res)
		experiments.RenderFig4TLC(w, res)
	}
	if want("sensitivity") {
		experiments.Rule(w, "Sensitivity sweeps (environment knobs)")
		cfg := experiments.DefaultSensitivityConfig()
		cfg.Seed = seed
		cfg.Workers = workers
		start := time.Now()
		res, err := experiments.RunSensitivity(cfg)
		if err != nil {
			return err
		}
		record("sensitivity", start, par.Workers(workers), []string{"flexFTL", "pageFTL"}, res)
		experiments.RenderSensitivity(w, res)
	}
	if want("stress") {
		experiments.Rule(w, "Lifetime stress sweep (Figure 4(b) extended to a curve)")
		cfg := experiments.DefaultStressSweepConfig()
		cfg.Workers = workers
		start := time.Now()
		pts, err := experiments.RunStressSweep(cfg)
		if err != nil {
			return err
		}
		record("stress", start, par.Workers(workers), nil, pts)
		experiments.RenderStressSweep(w, pts)
	}
	if want("ablation") {
		experiments.Rule(w, "flexFTL ablations (DESIGN.md §5)")
		cfg := experiments.DefaultAblationConfig()
		cfg.Seed = seed
		cfg.Workers = workers
		start := time.Now()
		res, err := experiments.RunAblations(cfg)
		if err != nil {
			return err
		}
		record("ablation", start, par.Workers(workers), append([]string{"flexFTL"}, experiments.Hybrids()...), res)
		experiments.RenderAblations(w, res)
	}
	if want("placement") {
		experiments.Rule(w, "Placement-axis sweep (hot/cold + wear-aware under Zipf)")
		cfg := experiments.DefaultPlacementSweepConfig()
		cfg.Seed = seed
		// The placement geometry is shrunk, so runs are cheap; keep them at
		// 4/5 of the Figure-8 request count (120k at the default) — the
		// wear-spread column needs that much GC steady state to settle.
		cfg.Requests = requests * 4 / 5
		if cfg.Requests < 10000 {
			cfg.Requests = 10000
		}
		cfg.Workers = workers
		start := time.Now()
		res, err := experiments.RunPlacementSweep(cfg)
		if err != nil {
			return err
		}
		record("placement", start, par.Workers(workers), cfg.Schemes, res)
		experiments.RenderPlacementSweep(w, res)
	}
	if want("reliability") {
		experiments.Rule(w, "Reliability aging sweep (refresh/scrub vs detect-only)")
		start := time.Now()
		reps, err := experiments.AgingSweep([]string{"pageFTL", "flexFTL"}, seed)
		if err != nil {
			return err
		}
		record("reliability", start, 1, []string{"pageFTL", "flexFTL"}, reps)
		experiments.RenderAging(w, reps)
	}
	if want("fig8a") || want("fig8b") || want("fig8c") || want("summary") || exp == "fig8" {
		geometry := experiments.EvalGeometry()
		if full {
			geometry = nand.DefaultGeometry()
		}
		cfg := experiments.Fig8Config{Geometry: geometry, Requests: requests, Seed: seed, Workers: workers}
		experiments.Rule(w, fmt.Sprintf("Figure 8 (%s, %d requests/run)", geometry, requests))
		start := time.Now()
		res, err := experiments.RunFig8(cfg)
		if err != nil {
			return err
		}
		record("fig8", start, par.Workers(workers), res.Schemes, res)
		fmt.Fprintf(w, "(4 FTLs x 5 workloads simulated in %v)\n\n", time.Since(start).Round(time.Millisecond))
		if want("fig8a") || exp == "fig8" {
			experiments.RenderFig8a(w, res)
			fmt.Fprintln(w)
		}
		if want("fig8b") || exp == "fig8" {
			experiments.RenderFig8b(w, res)
			fmt.Fprintln(w)
		}
		if want("fig8c") || exp == "fig8" {
			experiments.RenderFig8c(w, res)
			fmt.Fprintln(w)
		}
		if want("summary") || exp == "fig8" {
			experiments.RenderFig8Summary(w, res)
		}
	}
	if metricsPath != "" {
		n := len(snapshots)
		if len(infos) > 0 {
			snapshots["runinfo"] = infos
		}
		if err := writeMetrics(metricsPath, snapshots); err != nil {
			return err
		}
		fmt.Fprintf(w, "metrics: wrote %d experiment snapshot(s) to %s\n", n, metricsPath)
	}
	return nil
}

// writeMetrics dumps the collected experiment results as indented JSON.
func writeMetrics(path string, snapshots map[string]any) error {
	data, err := json.MarshalIndent(snapshots, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
