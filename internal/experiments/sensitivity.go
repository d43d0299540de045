package experiments

import (
	"fmt"
	"io"

	"flexftl/internal/workload"
)

// SensitivityPoint is one sweep setting's outcome.
type SensitivityPoint struct {
	Setting   string
	FlexIOPS  float64
	PageIOPS  float64
	FlexWA    float64
	PageWA    float64
	FlexPeak  float64
	Advantage float64 // FlexIOPS / PageIOPS
}

// The sweep settings: over-provisioning with the buffer at its default,
// and the buffer size with OP at its default.
var (
	sensitivityOPs     = []float64{0.07, 0.125, 0.25}
	sensitivityBuffers = []int{32, 128, 512}
)

// SensitivityResult carries both sweeps.
type SensitivityResult struct {
	Config Setup
	OP     []SensitivityPoint
	Buffer []SensitivityPoint
}

// RunSensitivity sweeps how flexFTL's advantage over the baseline responds to
// the two environment knobs the paper fixes implicitly — over-provisioning
// (GC pressure) and the write-buffer size (the u-threshold operating point).
// Every setting is a flexFTL and a pageFTL cell on the same Varmail trace.
func RunSensitivity(s Setup, workers int) (SensitivityResult, error) {
	res := SensitivityResult{Config: s}
	var grid Grid
	pair := func(label string, tune func(*Cell)) {
		for _, scheme := range []string{"flexFTL", "pageFTL"} {
			grid = append(grid, s.Cell(scheme, workload.Varmail()).With(label, tune))
		}
	}
	for _, op := range sensitivityOPs {
		pair(fmt.Sprintf("OP %.1f%%", 100*op), func(c *Cell) { c.FTL.OPFraction = op })
	}
	for _, buf := range sensitivityBuffers {
		pair(fmt.Sprintf("buffer %d pages", buf), func(c *Cell) { c.SSD.BufferPages = buf })
	}
	runs, err := RunGrid(grid, workers)
	if err != nil {
		return res, err
	}
	var points []SensitivityPoint
	for i := 0; i < len(runs); i += 2 {
		flexR, pageR := runs[i], runs[i+1]
		p := SensitivityPoint{
			Setting:  grid[i].Label,
			FlexIOPS: flexR.Metrics.IOPS,
			PageIOPS: pageR.Metrics.IOPS,
			FlexWA:   flexR.Stats.WriteAmplification(),
			PageWA:   pageR.Stats.WriteAmplification(),
			FlexPeak: flexR.Metrics.PeakWriteBandwidthMBs,
		}
		if p.PageIOPS > 0 {
			p.Advantage = p.FlexIOPS / p.PageIOPS
		}
		points = append(points, p)
	}
	res.OP, res.Buffer = points[:len(sensitivityOPs)], points[len(sensitivityOPs):]
	return res, nil
}

// RenderSensitivity prints both sweeps.
func RenderSensitivity(w io.Writer, res SensitivityResult) {
	fmt.Fprintf(w, "Sensitivity of flexFTL's advantage (Varmail, %d requests)\n", res.Config.Requests)
	print := func(title string, pts []SensitivityPoint) {
		fmt.Fprintln(w, title)
		fmt.Fprintf(w, "  %-18s %10s %10s %8s %8s %9s %10s\n",
			"setting", "flex IOPS", "page IOPS", "flexWA", "pageWA", "flexPeak", "advantage")
		for _, p := range pts {
			fmt.Fprintf(w, "  %-18s %10.0f %10.0f %8.2f %8.2f %9.1f %9.2fx\n",
				p.Setting, p.FlexIOPS, p.PageIOPS, p.FlexWA, p.PageWA, p.FlexPeak, p.Advantage)
		}
	}
	print("(a) over-provisioning (GC pressure):", res.OP)
	print("(b) write-buffer size (the u-threshold operating point):", res.Buffer)
}
