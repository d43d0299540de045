package experiments

import (
	"fmt"

	"flexftl/internal/core"
	"flexftl/internal/par"
	"flexftl/internal/rng"
	"flexftl/internal/vth"
)

// vthStudy is the Monte-Carlo fan-out behind the Figure 4 study, its TLC
// extension and the stress sweep: blocks blocks of wordLines x cells of the
// params' cell, programmed under each of the orders and measured at each of
// the operating points.
type vthStudy struct {
	label                             string // names the study in errors
	params                            vth.Params
	blocks, wordLines, cells, workers int
	orders                            func(core.Scheme) []namedOrder
	points                            []vth.StressCondition
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

// run validates the study and simulates it. It returns the orders and, at
// pi*len(orders)+oi, the series of the blocks under order oi at operating
// point pi, concatenated in block order. Every block is one task writing its
// own slot and the slots are read back in index order, so the result is
// identical for any worker count; each worker reuses one arena across its
// blocks, keeping the fan-out allocation-lean.
func (st vthStudy) run() ([]namedOrder, []blockSeries, error) {
	if st.blocks < 1 || st.wordLines < 1 || st.cells < 1 || len(st.points) == 0 {
		return nil, nil, fmt.Errorf("%s: need Blocks, WordLines, Cells >= 1 and an operating point, got %d, %d, %d and %d points",
			st.label, st.blocks, st.wordLines, st.cells, len(st.points))
	}
	st.params.CellsPerWordLine = st.cells
	model, err := vth.NewModel(st.params)
	if err != nil {
		return nil, nil, err
	}
	scheme := core.Scheme{Levels: st.params.Cell.Bits, WordLines: st.wordLines}
	orders := st.orders(scheme)
	workers := par.Workers(st.workers)
	scratch := par.MakeScratch(workers, vth.NewArena)
	slots := make([]blockSeries, len(st.points)*len(orders)*st.blocks)
	err = par.Run(workers, len(slots), func(worker, task int) error {
		row, b := task/st.blocks, task%st.blocks // row = pi*len(orders) + oi
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
		acc := &series[task/st.blocks]
		acc.wps = append(acc.wps, s.wps...)
		acc.bers = append(acc.bers, s.bers...)
	}
	return orders, series, nil
}
