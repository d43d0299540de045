package experiments

import (
	"fmt"
	"io"

	"flexftl/internal/core"
	"flexftl/internal/ecc"
	"flexftl/internal/stats"
	"flexftl/internal/vth"
)

// The stress sweep extends the Figure 4(b) point measurement into a curve:
// median BER and ECC page-failure probability versus P/E cycles at 1-year
// retention, for FPS and RPSfull. It shows *where* the ECC envelope is
// crossed and that the two orders cross it together — the lifetime-relevant
// reading of the reliability equivalence.

// StressPoint is one P/E cycle count's measurement.
type StressPoint struct {
	PECycles int
	// MedianBER per order name.
	MedianBER map[string]float64
	// PageFail per order name (4 KB page, 40-bit/1KB BCH).
	PageFail map[string]float64
}

// DefaultStressSweepConfig is the stress sweep's scale.
func DefaultStressSweepConfig(seed uint64) VthConfig {
	return VthConfig{Blocks: 8, WordLines: 32, Cells: 1024, Seed: seed}
}

// stressCycles are the P/E counts the sweep measures at: begin-of-life to
// 2x the paper's worst case.
var stressCycles = []int{0, 1000, 2000, 3000, 4500, 6000}

// RunStressSweep computes the curve.
func RunStressSweep(cfg VthConfig, workers int) ([]StressPoint, error) {
	study := vthStudy{
		label: "stress sweep", params: vth.DefaultParams(), cfg: cfg,
		orders: func(s core.Scheme) []namedOrder {
			return []namedOrder{
				{"FPS", core.FPSOrder(s.WordLines)},
				{"RPSfull", core.RPSFullOrder(s.WordLines)},
			}
		},
		// Both orders draw block b of a cycle count from the same seed.
		seed: func(ci, _, b int) uint64 { return cfg.Seed + uint64(stressCycles[ci])*31 + uint64(b) },
	}
	for _, pe := range stressCycles {
		study.points = append(study.points, vth.StressCondition{PECycles: pe, RetentionYears: 1})
	}
	orders, series, err := study.run(workers)
	if err != nil {
		return nil, err
	}
	code := ecc.Default40BitPer1K()
	var out []StressPoint
	for ci, pe := range stressCycles {
		pt := StressPoint{
			PECycles:  pe,
			MedianBER: make(map[string]float64),
			PageFail:  make(map[string]float64),
		}
		for oi, o := range orders {
			med := stats.Quantile(series[ci*len(orders)+oi].bers, 0.5)
			pt.MedianBER[o.name] = med
			pt.PageFail[o.name] = code.PageFailureProb(med, 4096)
		}
		out = append(out, pt)
	}
	return out, nil
}

// RenderStressSweep prints the curve.
func RenderStressSweep(w io.Writer, pts []StressPoint) {
	fmt.Fprintln(w, "BER vs P/E cycles at 1-year retention (median per page; ECC = 40b/1KB BCH)")
	fmt.Fprintf(w, "  %8s %12s %12s %14s %14s\n",
		"P/E", "BER(FPS)", "BER(RPSfull)", "Pfail(FPS)", "Pfail(RPSfull)")
	for _, p := range pts {
		fmt.Fprintf(w, "  %8d %12.2e %12.2e %14.3g %14.3g\n",
			p.PECycles, p.MedianBER["FPS"], p.MedianBER["RPSfull"],
			p.PageFail["FPS"], p.PageFail["RPSfull"])
	}
	fmt.Fprintln(w, "the two orders' BER curves track each other across the lifetime; near the")
	fmt.Fprintln(w, "ECC knee, Monte-Carlo noise in the BER amplifies into large Pfail swings —")
	fmt.Fprintln(w, "the cliff is the code's, not the program order's.")
}
