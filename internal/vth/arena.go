package vth

import (
	"flexftl/internal/core"
)

// Arena is reusable per-worker scratch for the Monte-Carlo simulators. A
// block simulation touches wordLines x cells state several times; with an
// arena the backing arrays are allocated once and reused, so steady-state
// SimulateBlockArena calls perform zero heap allocations (pinned by
// TestSimulateBlockArenaZeroAllocs).
//
// An Arena is not safe for concurrent use: give each worker of a parallel
// experiment its own (par.MakeScratch does exactly that). The WordLines
// slice of a result returned by an arena-based call aliases arena memory
// and is valid only until the arena's next simulation; copy out whatever
// must survive.
type Arena struct {
	// Shared between the MLC and n-level models. Cell-indexed slices are
	// flat and strided: cell c of word line k lives at k*cells + c.
	vth     []float64        // current Vth per cell
	delta   []float64        // per-cell Vth increase of the latest program
	aggr    []int            // per-WL aggressor counts
	results []WordLineResult // backing for BlockResult/NLevelResult.WordLines
	seen    *core.BlockState // pages programmed so far (rejects repeated pages)

	// MLC (2-bit) scratch.
	target  []State // intended final state per cell
	lsbBits []uint8 // data bit of the LSB page per cell
	msbDone []bool  // per-WL: MSB program applied

	// n-level scratch.
	state  []int32   // current (coarse) state index per cell
	depth  []int     // refinement programs applied per WL
	levels []float64 // nominal level targets of the current refinement
	minV   []float64 // per-state width tracking of one word line
	maxV   []float64
	haveSt []bool
}

// NewArena returns an empty arena; buffers grow on first use and are
// retained across simulations.
func NewArena() *Arena { return &Arena{} }

// grow returns s resized to n, reusing its backing array when it is large
// enough. Contents are unspecified — callers must overwrite or explicitly
// clear what they read.
func grow[T any](s []T, n int) []T {
	if cap(s) >= n {
		return s[:n]
	}
	return make([]T, n)
}

// forMLC sizes the arena for a 2-bit block of wordLines x cells and clears
// the state that carries across program operations.
func (a *Arena) forMLC(wordLines, cells int) {
	n := wordLines * cells
	a.vth = grow(a.vth, n)
	a.target = grow(a.target, n)
	a.lsbBits = grow(a.lsbBits, n)
	a.delta = grow(a.delta, cells)
	a.results = grow(a.results, wordLines)
	a.msbDone = grow(a.msbDone, wordLines)
	a.aggr = grow(a.aggr, wordLines)
	for k := 0; k < wordLines; k++ {
		a.msbDone[k] = false
		a.aggr[k] = 0
	}
	a.resetSeen(core.MLC(wordLines))
}

// forNLevel sizes the arena for an n-level block and clears carried state.
func (a *Arena) forNLevel(s core.Scheme, cells int) {
	wl := s.WordLines
	n := wl * cells
	states := 1 << s.Levels
	a.vth = grow(a.vth, n)
	a.state = grow(a.state, n)
	for i := range a.state {
		a.state[i] = 0
	}
	a.delta = grow(a.delta, cells)
	a.results = grow(a.results, wl)
	a.depth = grow(a.depth, wl)
	a.aggr = grow(a.aggr, wl)
	for k := 0; k < wl; k++ {
		a.depth[k] = 0
		a.aggr[k] = 0
	}
	a.levels = grow(a.levels, states)
	a.minV = grow(a.minV, states)
	a.maxV = grow(a.maxV, states)
	a.haveSt = grow(a.haveSt, states)
	a.resetSeen(s)
}

// resetSeen clears the programmed-page tracker, reallocating it only when
// the block shape changed.
func (a *Arena) resetSeen(s core.Scheme) {
	if a.seen == nil || a.seen.Scheme() != s {
		a.seen = core.NewBlockState(s)
	} else {
		a.seen.Reset()
	}
}
