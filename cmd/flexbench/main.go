// Command flexbench regenerates every table and figure of the paper's
// evaluation:
//
//	flexbench                  # full suite at the default (scaled) geometry
//	flexbench -exp fig8a       # one experiment
//	flexbench -full            # Figure 8 on the paper's exact 16 GB geometry (slow)
//	flexbench -requests 200000 # longer Figure 8 and placement-sweep runs
//	flexbench -workers 1       # serial simulation runs
//
// -full reaches only Figure 8, and -requests only Figure 8 and the placement
// sweep (which runs 4/5 of them, at least 10 000). Every other exhibit fixes
// its own scale: the ablation and sensitivity sweeps run 40 000 requests on
// the evaluation geometry whatever the flags say.
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
	var o options
	flag.StringVar(&o.exp, "exp", "all", "experiment: "+strings.Join(experimentNames(), "|"))
	flag.IntVar(&o.requests, "requests", 150000, "host requests per Figure 8 run; the placement sweep runs 4/5 of them, other exhibits fix their own")
	flag.Uint64Var(&o.seed, "seed", 42, "seed of every exhibit (workloads and Monte-Carlo studies)")
	flag.BoolVar(&o.full, "full", false, "run Figure 8 on the paper's 16 GB geometry (slow; other exhibits keep theirs)")
	flag.IntVar(&o.fig4Blocks, "fig4-blocks", 90, "blocks per order for Figure 4")
	flag.IntVar(&o.workers, "workers", 0, "simulation workers per experiment (0 = all cores, 1 = serial)")
	flag.StringVar(&o.metrics, "metrics", "", "write per-experiment result snapshots as JSON to this file")
	flag.Parse()
	if err := run(os.Stdout, o); err != nil {
		fmt.Fprintln(os.Stderr, "flexbench:", err)
		os.Exit(1)
	}
}

// options are the command's flags.
type options struct {
	exp        string
	requests   int
	seed       uint64
	full       bool
	fig4Blocks int
	workers    int
	metrics    string // -metrics dump path; "" writes none
}

// exhibit is one table or figure: the -exp values that select it, how it
// runs and how it prints. Its result is recorded under its name in the
// -metrics dump.
type exhibit struct {
	name    string
	aliases []string // further -exp values that select it
	// schemes are the FTL registry names the exhibit simulates (none for
	// reliability-model and workload-characterization exhibits).
	schemes []string
	serial  bool // runs on one goroutine whatever -workers says
	run     func(o options) (any, error)
	// render prints the exhibit under its title.
	render func(w io.Writer, o options, res any) error
}

// exhibits run in this order under -exp all.
var exhibits = []exhibit{
	{
		name: "fig1", serial: true,
		run: func(options) (any, error) { return nand.DefaultTiming(), nil },
		render: func(w io.Writer, o options, res any) error {
			experiments.Rule(w, "Figure 1")
			experiments.RenderFig1(w, res.(nand.Timing))
			return experiments.RenderFig1Distributions(w, o.seed)
		},
	},
	{
		name: "table1", serial: true,
		run:    func(o options) (any, error) { return result(experiments.RunTable1(1<<20, 50000, o.seed)) },
		render: rendering("Table 1", experiments.RenderTable1),
	},
	{
		name: "fig4", aliases: []string{"fig4a", "fig4b"},
		run: func(o options) (any, error) {
			cfg := experiments.DefaultFig4Config(o.seed)
			cfg.Blocks = o.fig4Blocks
			return result(experiments.RunFig4(cfg, o.workers))
		},
		render: rendering("Figure 4", experiments.RenderFig4),
	},
	{
		name: "fig4tlc",
		run: func(o options) (any, error) {
			return result(experiments.RunFig4TLC(experiments.DefaultFig4TLCConfig(o.seed), o.workers))
		},
		render: rendering("TLC extension (Section 1 claim)", experiments.RenderFig4TLC),
	},
	{
		name: "sensitivity", schemes: []string{"flexFTL", "pageFTL"},
		run: func(o options) (any, error) {
			return result(experiments.RunSensitivity(experiments.SweepSetup(o.seed), o.workers))
		},
		render: rendering("Sensitivity sweeps (environment knobs)", experiments.RenderSensitivity),
	},
	{
		name: "stress",
		run: func(o options) (any, error) {
			return result(experiments.RunStressSweep(experiments.DefaultStressSweepConfig(o.seed), o.workers))
		},
		render: rendering("Lifetime stress sweep (Figure 4(b) extended to a curve)", experiments.RenderStressSweep),
	},
	{
		name: "ablation", schemes: append([]string{"flexFTL"}, experiments.Hybrids()...),
		run: func(o options) (any, error) {
			return result(experiments.RunAblations(experiments.SweepSetup(o.seed), o.workers))
		},
		render: rendering("flexFTL ablations (DESIGN.md §5)", experiments.RenderAblations),
	},
	{
		name: "placement", schemes: experiments.PlacementSchemes(),
		run: func(o options) (any, error) {
			return result(experiments.RunPlacementSweep(experiments.PlacementSetup(o.requests, o.seed), o.workers))
		},
		render: rendering("Placement-axis sweep (hot/cold + wear-aware under Zipf)", experiments.RenderPlacementSweep),
	},
	{
		name: "reliability", schemes: []string{"pageFTL", "flexFTL"},
		run: func(o options) (any, error) {
			return result(experiments.AgingSweep([]string{"pageFTL", "flexFTL"}, o.seed, o.workers))
		},
		render: rendering("Reliability aging sweep (refresh/scrub vs detect-only)", experiments.RenderAging),
	},
	{
		name: "fig8", aliases: fig8Parts, schemes: experiments.Schemes(),
		run: func(o options) (any, error) {
			s := experiments.Setup{Geometry: experiments.EvalGeometry(), Requests: o.requests, Seed: o.seed}
			if o.full {
				s.Geometry = nand.DefaultGeometry()
			}
			return result(experiments.RunFig8(s, o.workers))
		},
		render: func(w io.Writer, o options, res any) error {
			r := res.(experiments.Fig8Result)
			experiments.Rule(w, fmt.Sprintf("Figure 8 (%s, %d requests/run)", r.Config.Geometry, r.Config.Requests))
			fmt.Fprintln(w)
			parts := []func(io.Writer, experiments.Fig8Result){
				experiments.RenderFig8a, experiments.RenderFig8b, experiments.RenderFig8c, experiments.RenderFig8Summary,
			}
			for i, part := range parts {
				if o.exp == "all" || o.exp == "fig8" || o.exp == fig8Parts[i] {
					part(w, r)
					if i < len(parts)-1 {
						fmt.Fprintln(w)
					}
				}
			}
			return nil
		},
	},
}

// fig8Parts select one part of Figure 8 each, in render order.
var fig8Parts = []string{"fig8a", "fig8b", "fig8c", "summary"}

// result passes a driver's typed result on as an exhibit's.
func result[T any](res T, err error) (any, error) { return res, err }

// rendering adapts a driver's renderer to an exhibit's.
func rendering[T any](title string, render func(io.Writer, T)) func(io.Writer, options, any) error {
	return func(w io.Writer, _ options, res any) error {
		experiments.Rule(w, title)
		render(w, res.(T))
		return nil
	}
}

// experimentNames are the values -exp accepts.
func experimentNames() []string {
	names := []string{"all"}
	for _, e := range exhibits {
		names = append(append(names, e.name), e.aliases...)
	}
	return names
}

// runInfo records how an experiment executed, for the -metrics dump.
// Schemes lists the FTL registry names the experiment actually simulated
// (empty for reliability-model and workload-characterization experiments,
// which run no FTL).
type runInfo struct {
	Workers int      `json:"workers"`
	WallMS  float64  `json:"wall_ms"`
	Schemes []string `json:"schemes,omitempty"`
}

func run(w io.Writer, o options) error {
	if !slices.Contains(experimentNames(), o.exp) {
		return fmt.Errorf("unknown experiment %q", o.exp)
	}
	// snapshots collects each experiment's result object for -metrics;
	// infos records worker count and wall-clock alongside.
	snapshots := make(map[string]any)
	infos := make(map[string]runInfo)
	for _, e := range exhibits {
		if o.exp != "all" && o.exp != e.name && !slices.Contains(e.aliases, o.exp) {
			continue
		}
		start := time.Now()
		res, err := e.run(o)
		if err != nil {
			return err
		}
		info := runInfo{Workers: par.Workers(o.workers), WallMS: float64(time.Since(start).Microseconds()) / 1000, Schemes: e.schemes}
		if e.serial {
			info.Workers = 1
		}
		snapshots[e.name], infos[e.name] = res, info
		if err := e.render(w, o, res); err != nil {
			return err
		}
	}
	if o.metrics != "" {
		n := len(snapshots)
		snapshots["runinfo"] = infos
		if err := writeMetrics(o.metrics, snapshots); err != nil {
			return err
		}
		fmt.Fprintf(w, "metrics: wrote %d experiment snapshot(s) to %s\n", n, o.metrics)
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
