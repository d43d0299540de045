// Package experiments contains one driver per table and figure of the
// paper's evaluation (Section 4 plus the Section 2 reliability study), shared
// by cmd/flexbench and the root-level benchmarks. Each driver is
// deterministic given its seed and returns structured results that the
// render helpers format in the paper's layout.
package experiments

import (
	"flexftl/internal/ftl"
	"flexftl/internal/nand"
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
	return BuildFTLWith(scheme, g, ftl.DefaultConfig())
}

// BuildFTLWith is BuildFTL with a caller-supplied FTL configuration (the
// sensitivity sweeps vary over-provisioning).
func BuildFTLWith(scheme string, g nand.Geometry, cfg ftl.Config) (ftl.FTL, error) {
	return ftl.BuildFTL(scheme, ftl.BuildEnv{Geometry: g, Config: cfg, Flex: ftl.DefaultFlexParams()})
}

// simulate runs one experiment cell on a built FTL: it mounts f in a System
// with cfg, prefills it, and runs the workload newGen builds over f's
// logical space. Callers prefix the error with the cell's name.
func simulate(f ftl.FTL, cfg ssd.Config, newGen func(space int64) (workload.Generator, error)) (ssd.RunResult, error) {
	sys, err := ssd.New(f, cfg)
	if err != nil {
		return ssd.RunResult{}, err
	}
	if _, err := sys.Prefill(); err != nil {
		return ssd.RunResult{}, err
	}
	gen, err := newGen(f.LogicalPages())
	if err != nil {
		return ssd.RunResult{}, err
	}
	return sys.Run(gen)
}
