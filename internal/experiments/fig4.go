package experiments

import (
	"flexftl/internal/core"
	"flexftl/internal/ecc"
	"flexftl/internal/stats"
	"flexftl/internal/vth"
)

// DefaultFig4Config mirrors the paper's scale for the reliability study of
// Figure 4: it verifies with >90 blocks from three 2X-nm chips (>5000 pages).
func DefaultFig4Config(seed uint64) VthConfig {
	return VthConfig{Blocks: 90, WordLines: 64, Cells: 1024, Seed: seed}
}

// DefaultFig4TLCConfig is the TLC extension study at the MLC study's scale.
func DefaultFig4TLCConfig(seed uint64) VthConfig {
	return VthConfig{Blocks: 45, WordLines: 64, Cells: 1024, Seed: seed}
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
	Config VthConfig
	Rows   []Fig4Row
}

// RunFig4 simulates programming the config's blocks under FPS, both RPS
// orders and the forbidden unconstrained order (the Figure 2(a) motivation),
// and collects the WPi and BER distributions.
func RunFig4(cfg VthConfig, workers int) (Fig4Result, error) {
	return runFig4(cfg, workers, vthStudy{
		label: "fig4", params: vth.DefaultParams(),
		orders: func(s core.Scheme) []namedOrder {
			return []namedOrder{
				{"FPS", core.FPSOrder(s.WordLines)},
				{"RPSfull", core.RPSFullOrder(s.WordLines)},
				{"RPShalf", core.RPSHalfOrder(s.WordLines)},
				{"Unconstrained(worst)", core.WorstCaseOrder(s)},
			}
		},
		seed: func(_, oi, b int) uint64 { return cfg.Seed + uint64(oi)*1_000_003 + uint64(b) },
		xor:  0x5deece66d,
	})
}

// RunFig4TLC tests the paper's claim (Section 1) that RPS applies to TLC
// devices with a similar program scheme: it repeats the Figure 4 methodology
// on the generalized 3-bit formalism, vendor staircase vs the relaxed
// 3-phase order vs the forbidden worst case.
func RunFig4TLC(cfg VthConfig, workers int) (Fig4Result, error) {
	return runFig4(cfg, workers, vthStudy{
		label: "fig4tlc", params: vth.EvenParams(3),
		orders: func(s core.Scheme) []namedOrder {
			return []namedOrder{
				{"Fixed (vendor staircase)", core.FixedOrder(s)},
				{"Relaxed 3-phase", core.RelaxedFullOrder(s)},
				{"Unconstrained(worst)", core.WorstCaseOrder(s)},
			}
		},
		seed: func(_, oi, b int) uint64 { return cfg.Seed + uint64(oi)*7_000_003 + uint64(b) },
		xor:  0xabcdef,
	})
}

// runFig4 measures st's orders fresh and at the worst-case operating point
// and summarizes each order's distributions.
func runFig4(cfg VthConfig, workers int, st vthStudy) (Fig4Result, error) {
	res := Fig4Result{Config: cfg}
	st.cfg, st.points, st.widths = cfg, []vth.StressCondition{vth.WorstCase}, true
	orders, series, err := st.run(workers)
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
