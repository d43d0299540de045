package experiments

import (
	"fmt"

	"flexftl/internal/core"
	"flexftl/internal/ecc"
	"flexftl/internal/par"
	"flexftl/internal/rng"
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
	params := vth.DefaultParams()
	params.CellsPerWordLine = cfg.Cells
	model, err := vth.NewModel(params)
	if err != nil {
		return Fig4Result{}, err
	}
	type namedOrder struct {
		name  string
		pages []core.Page
	}
	orders := []namedOrder{
		{"FPS", core.FPSOrder(cfg.WordLines)},
		{"RPSfull", core.RPSFullOrder(cfg.WordLines)},
		{"RPShalf", core.RPSHalfOrder(cfg.WordLines)},
	}
	if cfg.IncludeWorstCase {
		orders = append(orders, namedOrder{"Unconstrained(worst)", core.WorstCaseOrder(core.MLC(cfg.WordLines))})
	}
	res := Fig4Result{Config: cfg}

	// One task per (order, block), each writing its own slot; the
	// aggregation below reads the slots in index order, so the result is
	// identical for any worker count. Each worker reuses one arena across
	// its blocks, keeping the fan-out allocation-lean.
	type blockOut struct{ wps, bers []float64 }
	workers := par.Workers(cfg.Workers)
	scratch := par.MakeScratch(workers, vth.NewArena)
	slots := make([]blockOut, len(orders)*cfg.Blocks)
	err = par.Run(workers, len(slots), func(worker, task int) error {
		oi, b := task/cfg.Blocks, task%cfg.Blocks
		o := orders[oi]
		seed := cfg.Seed + uint64(oi)*1_000_003 + uint64(b)
		fresh, err := model.SimulateBlockArena(cfg.WordLines, o.pages, vth.Fresh, rng.New(seed), scratch[worker])
		if err != nil {
			return fmt.Errorf("fig4 %s block %d: %w", o.name, b, err)
		}
		wps := fresh.WPSums() // copy out before the arena is reused below
		worn, err := model.SimulateBlockArena(cfg.WordLines, o.pages, vth.WorstCase, rng.New(seed^0x5deece66d), scratch[worker])
		if err != nil {
			return fmt.Errorf("fig4 %s block %d (stress): %w", o.name, b, err)
		}
		slots[task] = blockOut{wps: wps, bers: worn.BERs()}
		return nil
	})
	if err != nil {
		return res, err
	}
	for oi, o := range orders {
		var wps, bers []float64
		for b := 0; b < cfg.Blocks; b++ {
			out := slots[oi*cfg.Blocks+b]
			wps = append(wps, out.wps...)
			bers = append(bers, out.bers...)
		}
		berBox := stats.Summarize(bers)
		res.Rows = append(res.Rows, Fig4Row{
			Order:       o.name,
			WP:          stats.Summarize(wps),
			BER:         berBox,
			PageFailEOL: ecc.Default40BitPer1K().PageFailureProb(berBox.Median, 4096),
			Pages:       len(wps),
		})
	}
	return res, nil
}
