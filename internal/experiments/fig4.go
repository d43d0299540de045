package experiments

import (
	"flexftl/internal/core"
	"flexftl/internal/ecc"
	"flexftl/internal/stats"
	"flexftl/internal/vth"
)

// Fig4Config parameterizes the reliability study of Figure 4. The paper
// verifies with >90 blocks from three 2X-nm chips (>5000 pages); the default
// reproduces that scale against the Monte-Carlo Vth model.
type Fig4Config struct {
	Blocks    int // blocks per program order
	WordLines int // word lines per block
	Cells     int // Monte-Carlo cells per word line
	Seed      uint64
	// IncludeWorstCase adds the forbidden unconstrained order for contrast
	// (the Figure 2(a) motivation).
	IncludeWorstCase bool
	// Workers bounds the simulation fan-out: 0 uses every core, 1 runs
	// serially. Results are identical for any value — every block derives
	// its own seed.
	Workers int
}

// DefaultFig4Config mirrors the paper's scale.
func DefaultFig4Config() Fig4Config {
	return Fig4Config{Blocks: 90, WordLines: 64, Cells: 1024, Seed: 2016, IncludeWorstCase: true}
}

// Fig4Row holds one program order's distributions.
type Fig4Row struct {
	Order string
	// WP summarizes the per-page sums of Vth state widths (Figure 4(a)),
	// measured fresh.
	WP stats.FiveNum
	// BER summarizes per-page bit error rates at the worst-case operating
	// condition, 3K P/E cycles + 1-year retention (Figure 4(b)).
	BER stats.FiveNum
	// PageFailEOL is the probability that a 4 KB page is ECC-uncorrectable
	// at end of life, computed from the median BER under the controller's
	// 40-bit/1KB BCH envelope. It translates Figure 4(b) into the quantity
	// the FTL-level backup schemes actually defend against.
	PageFailEOL float64
	// Pages is the number of word lines sampled.
	Pages int
}

// Fig4Result carries the rows in display order.
type Fig4Result struct {
	Config Fig4Config
	Rows   []Fig4Row
}

// RunFig4 simulates programming Blocks blocks under each order and collects
// the WPi and BER distributions.
func RunFig4(cfg Fig4Config) (Fig4Result, error) {
	res := Fig4Result{Config: cfg}
	study := vthStudy{
		label: "fig4", params: vth.DefaultParams(),
		blocks: cfg.Blocks, wordLines: cfg.WordLines, cells: cfg.Cells, workers: cfg.Workers,
		orders: func(s core.Scheme) []namedOrder {
			orders := []namedOrder{
				{"FPS", core.FPSOrder(s.WordLines)},
				{"RPSfull", core.RPSFullOrder(s.WordLines)},
				{"RPShalf", core.RPSHalfOrder(s.WordLines)},
			}
			if cfg.IncludeWorstCase {
				orders = append(orders, namedOrder{"Unconstrained(worst)", core.WorstCaseOrder(s)})
			}
			return orders
		},
		points: []vth.StressCondition{vth.WorstCase}, widths: true,
		seed: func(_, oi, b int) uint64 { return cfg.Seed + uint64(oi)*1_000_003 + uint64(b) },
		xor:  0x5deece66d,
	}
	orders, series, err := study.run()
	if err != nil {
		return res, err
	}
	for oi, o := range orders {
		berBox := stats.Summarize(series[oi].bers)
		res.Rows = append(res.Rows, Fig4Row{
			Order:       o.name,
			WP:          stats.Summarize(series[oi].wps),
			BER:         berBox,
			PageFailEOL: ecc.Default40BitPer1K().PageFailureProb(berBox.Median, 4096),
			Pages:       len(series[oi].wps),
		})
	}
	return res, nil
}
