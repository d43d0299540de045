package vth

import (
	"flexftl/internal/core"
)

// Arena is reusable per-worker scratch for the Monte-Carlo simulator. A
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
	// Cell-indexed slices are flat and strided: cell c of word line k lives
	// at k*cells + c.
	vth     []float64        // current Vth per cell
	state   []uint8          // current state per cell (final once depth = bits)
	delta   []float64        // per-cell Vth increase of the latest program
	depth   []int            // programs applied per WL
	aggr    []int            // per-WL aggressor counts
	results []WordLineResult // backing for BlockResult.WordLines
	seen    *core.BlockState // pages programmed so far (rejects repeated pages)
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

// size shapes the arena for a block of s.WordLines x cells and clears the
// state that carries across program operations; the page tracker is
// reallocated only when the block shape changed.
func (a *Arena) size(s core.Scheme, cells int) {
	wl := s.WordLines
	a.vth = grow(a.vth, wl*cells)
	a.state = grow(a.state, wl*cells)
	clear(a.state)
	a.delta = grow(a.delta, cells)
	a.results = grow(a.results, wl)
	a.depth = grow(a.depth, wl)
	clear(a.depth)
	a.aggr = grow(a.aggr, wl)
	clear(a.aggr)
	if a.seen == nil || a.seen.Scheme() != s {
		a.seen = core.NewBlockState(s)
	} else {
		a.seen.Reset()
	}
}
