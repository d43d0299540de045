// Package experiments contains one driver per table and figure of the
// paper's evaluation (Section 4 plus the Section 2 reliability study), shared
// by cmd/flexbench and the root-level benchmarks. The simulation drivers
// build a Grid of cells and run it with RunGrid; the Monte-Carlo studies
// share one VthConfig. Each driver is deterministic given its seed, at any
// worker count, and returns structured results that the render helpers
// format in the paper's layout.
package experiments

import (
	"fmt"

	"flexftl/internal/ftl"
	"flexftl/internal/nand"
	"flexftl/internal/par"
	"flexftl/internal/ssd"
	"flexftl/internal/workload"
)

// Schemes returns the four MLC FTLs of the evaluation, in the paper's order.
func Schemes() []string {
	return []string{"pageFTL", "parityFTL", "rtfFTL", "flexFTL"}
}

// Hybrids returns the registered policy combinations that exist only as
// registry entries (no paper counterpart), in registration order.
func Hybrids() []string {
	var names []string
	for _, name := range ftl.Names() {
		if s, ok := ftl.Lookup(name); ok && s.Hybrid {
			names = append(names, name)
		}
	}
	return names
}

// Baseline is the normalization reference of Figures 8(a) and 8(b).
const Baseline = "pageFTL"

// EvalGeometry is the scaled evaluation configuration: the paper limits its
// BlueDBM to 16 GB "for fast evaluations"; we scale one step further (512 MB,
// same channel/chip structure) so the full matrix reruns in seconds. The
// FTL-relative results are geometry-stable; cmd/flexbench -full uses the
// paper's exact 16 GB geometry.
func EvalGeometry() nand.Geometry {
	return nand.Geometry{
		Channels:          4,
		ChipsPerChannel:   2,
		BlocksPerChip:     128,
		WordLinesPerBlock: 64,
		PageSizeBytes:     4096,
		SpareBytes:        64,
	}
}

// BuildFTL constructs a scheme over a fresh device through the ftl registry;
// each spec brings the rule set its scheme needs (flexFTL an RPS device, the
// comparison FTLs stock FPS devices).
func BuildFTL(scheme string, g nand.Geometry) (ftl.FTL, error) {
	return ftl.BuildFTL(scheme, ftl.BuildEnv{Geometry: g, Config: ftl.DefaultConfig(), Flex: ftl.DefaultFlexParams()})
}

// Setup is what every simulation of an exhibit shares: the device, the run
// length and the workload seed, so every scheme sees the same trace.
type Setup struct {
	Geometry nand.Geometry
	Requests int // host requests per run
	Seed     uint64
}

// Cell is one simulation: a registry scheme under a workload, built with the
// FTL, allocator and system configuration it runs at.
type Cell struct {
	// Label names the cell's override in errors and in the exhibits' rows
	// ("quota 100% (unbounded)", "OP 7.0%"); empty at the defaults.
	Label    string
	Scheme   string
	Profile  workload.Profile
	Seed     uint64
	Geometry nand.Geometry
	Requests int
	FTL      ftl.Config
	Flex     ftl.FlexParams
	SSD      ssd.Config
}

// Cell returns scheme under p at the setup's device, run length and seed,
// with every configuration at its default.
func (s Setup) Cell(scheme string, p workload.Profile) Cell {
	return Cell{
		Scheme: scheme, Profile: p, Seed: s.Seed, Geometry: s.Geometry, Requests: s.Requests,
		FTL: ftl.DefaultConfig(), Flex: ftl.DefaultFlexParams(), SSD: ssd.DefaultConfig(),
	}
}

// With returns the cell labelled and changed by tune.
func (c Cell) With(label string, tune func(*Cell)) Cell {
	c.Label = label
	tune(&c)
	return c
}

// Grid is an exhibit's list of cells. Every cell builds its own device and
// FTL and draws its own trace, so cells run concurrently without sharing
// state.
type Grid []Cell

// RunGrid simulates every cell on at most workers goroutines (0 = all cores,
// 1 = serial) and returns the results in cell order, identical for any
// worker count. An error names the cell it came from.
func RunGrid(grid Grid, workers int) ([]ssd.RunResult, error) {
	return par.Map(workers, len(grid), func(_, i int) (ssd.RunResult, error) {
		c := grid[i]
		res, err := simulate(c)
		if err != nil {
			return res, fmt.Errorf("cell %d %q (%s on %s, seed %d): %w", i, c.Label, c.Scheme, c.Profile.Name, c.Seed, err)
		}
		return res, nil
	})
}

// simulate runs one cell: it builds the scheme, mounts it in a System,
// prefills it, and runs the cell's workload over its logical space.
func simulate(c Cell) (ssd.RunResult, error) {
	f, err := ftl.BuildFTL(c.Scheme, ftl.BuildEnv{Geometry: c.Geometry, Config: c.FTL, Flex: c.Flex})
	if err != nil {
		return ssd.RunResult{}, err
	}
	sys, err := ssd.New(f, c.SSD)
	if err != nil {
		return ssd.RunResult{}, err
	}
	if _, err := sys.Prefill(); err != nil {
		return ssd.RunResult{}, err
	}
	gen, err := workload.New(c.Profile, f.LogicalPages(), c.Requests, c.Seed)
	if err != nil {
		return ssd.RunResult{}, err
	}
	return sys.Run(gen)
}
