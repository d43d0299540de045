package experiments

import (
	"fmt"

	"flexftl/internal/core"
	"flexftl/internal/par"
	"flexftl/internal/rng"
	"flexftl/internal/vth"
)

// VthConfig parameterizes the Monte-Carlo reliability studies: Figure 4,
// its TLC extension and the stress sweep each simulate Blocks blocks of
// WordLines word lines of Cells cells under every program order they
// compare. Every block derives its own seed from Seed.
type VthConfig struct {
	Blocks    int
	WordLines int
	Cells     int
	Seed      uint64
}

// vthStudy is the Monte-Carlo fan-out behind the three studies: the config's
// blocks of the params' cell, programmed under each of the orders and
// measured at each of the operating points.
type vthStudy struct {
	label  string // names the study in errors
	params vth.Params
	cfg    VthConfig
	orders func(core.Scheme) []namedOrder
	points []vth.StressCondition
	// seed is the seed of block b of order oi at operating point pi; the
	// block is simulated at the point from seed^xor. With widths set it is
	// first simulated fresh from seed itself, for its width sums.
	seed   func(pi, oi, b int) uint64
	xor    uint64
	widths bool
}

// namedOrder is one program order under study.
type namedOrder struct {
	name  string
	pages []core.Page
}

// blockSeries holds per-word-line width sums (fresh) and bit error rates (at
// an operating point): what one simulated block contributes to a study, and
// what an order accumulates.
type blockSeries struct{ wps, bers []float64 }

// run validates the study and simulates it on at most workers goroutines
// (0 = all cores, 1 = serial). It returns the orders and, at
// pi*len(orders)+oi, the series of the blocks under order oi at operating
// point pi, concatenated in block order. Every block is one task writing its
// own slot and the slots are read back in index order, so the result is
// identical for any worker count; each worker reuses one arena across its
// blocks, keeping the fan-out allocation-lean.
func (st vthStudy) run(workers int) ([]namedOrder, []blockSeries, error) {
	blocks := st.cfg.Blocks
	if blocks < 1 || st.cfg.WordLines < 1 || st.cfg.Cells < 1 {
		return nil, nil, fmt.Errorf("%s: need Blocks, WordLines, Cells >= 1, got %d, %d, %d",
			st.label, blocks, st.cfg.WordLines, st.cfg.Cells)
	}
	st.params.CellsPerWordLine = st.cfg.Cells
	model, err := vth.NewModel(st.params)
	if err != nil {
		return nil, nil, err
	}
	scheme := core.Scheme{Levels: st.params.Cell.Bits, WordLines: st.cfg.WordLines}
	orders := st.orders(scheme)
	workers = par.Workers(workers)
	scratch := par.MakeScratch(workers, vth.NewArena)
	slots := make([]blockSeries, len(st.points)*len(orders)*blocks)
	err = par.Run(workers, len(slots), func(worker, task int) error {
		row, b := task/blocks, task%blocks // row = pi*len(orders) + oi
		pi, o := row/len(orders), orders[row%len(orders)]
		seed := st.seed(pi, row%len(orders), b)
		if st.widths {
			fresh, err := model.SimulateBlockArena(scheme, o.pages, vth.Fresh, rng.New(seed), scratch[worker])
			if err != nil {
				return fmt.Errorf("%s %s block %d: %w", st.label, o.name, b, err)
			}
			slots[task].wps = fresh.WPSums() // copy out before the arena is reused below
		}
		worn, err := model.SimulateBlockArena(scheme, o.pages, st.points[pi], rng.New(seed^st.xor), scratch[worker])
		if err != nil {
			return fmt.Errorf("%s %s block %d at %+v: %w", st.label, o.name, b, st.points[pi], err)
		}
		slots[task].bers = worn.BERs()
		return nil
	})
	if err != nil {
		return nil, nil, err
	}
	series := make([]blockSeries, len(st.points)*len(orders))
	for task, s := range slots {
		acc := &series[task/blocks]
		acc.wps = append(acc.wps, s.wps...)
		acc.bers = append(acc.bers, s.bers...)
	}
	return orders, series, nil
}
