package vth

import (
	"reflect"
	"testing"

	"flexftl/internal/alloctest"
	"flexftl/internal/core"
	"flexftl/internal/rng"
)

// TestSimulateBlockArenaMatchesLegacy: arena-backed simulation is
// numerically identical to the allocate-per-call path, including when the
// arena is reused across blocks of different shapes.
func TestSimulateBlockArenaMatchesLegacy(t *testing.T) {
	m := newModel(t)
	a := NewArena()
	for _, cfg := range []struct {
		wl    int
		order []core.Page
		seed  uint64
	}{
		{16, core.FPSOrder(16), 1},
		{16, core.RPSFullOrder(16), 2},
		{8, core.WorstCaseOrder(core.MLC(8)), 3}, // shrinking reuse
		{32, core.RPSHalfOrder(32), 4},           // growing reuse
	} {
		want, err := m.SimulateBlock(core.MLC(cfg.wl), cfg.order, WorstCase, rng.New(cfg.seed))
		if err != nil {
			t.Fatal(err)
		}
		got, err := m.SimulateBlockArena(core.MLC(cfg.wl), cfg.order, WorstCase, rng.New(cfg.seed), a)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(want.WordLines, got.WordLines) ||
			want.TotalBits != got.TotalBits || want.TotalErrs != got.TotalErrs {
			t.Fatalf("wl=%d: arena result differs from legacy", cfg.wl)
		}
	}
}

// TestSimulateBlockArenaZeroAllocs pins the tentpole property: with a warm
// arena, steady-state block simulation does not allocate.
func TestSimulateBlockArenaZeroAllocs(t *testing.T) {
	p := DefaultParams()
	p.CellsPerWordLine = 128
	m, err := NewModel(p)
	if err != nil {
		t.Fatal(err)
	}
	const wl = 8
	order := core.RPSFullOrder(wl)
	a := NewArena()
	src := rng.New(7)
	if _, err := m.SimulateBlockArena(core.MLC(wl), order, WorstCase, src, a); err != nil {
		t.Fatal(err)
	}
	allocs := alloctest.Count(10, func() {
		if _, err := m.SimulateBlockArena(core.MLC(wl), order, WorstCase, src, a); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("SimulateBlockArena allocates %d times in 10 blocks, want 0", allocs)
	}
}

// TestNLevelArenaMatchesLegacy mirrors the MLC equivalence check for the
// generalized model, TLC included.
func TestNLevelArenaMatchesLegacy(t *testing.T) {
	a := NewArena()
	for _, cfg := range []struct {
		s    core.Scheme
		seed uint64
	}{
		{core.TLC(8), 1},
		{core.MLC(8), 2}, // scheme switch forces the page tracker to reallocate
		{core.TLC(16), 3},
	} {
		m := newEvenModel(t, cfg.s.Levels, 128)
		order := core.FixedOrder(cfg.s)
		want, err := m.SimulateBlock(cfg.s, order, WorstCase, rng.New(cfg.seed))
		if err != nil {
			t.Fatal(err)
		}
		got, err := m.SimulateBlockArena(cfg.s, order, WorstCase, rng.New(cfg.seed), a)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(want.WordLines, got.WordLines) ||
			want.TotalBits != got.TotalBits || want.TotalErrs != got.TotalErrs {
			t.Fatalf("%v: arena result differs from legacy", cfg.s)
		}
	}
}

// TestNLevelArenaZeroAllocs: the n-level simulator is allocation-free on a
// warm arena too.
func TestNLevelArenaZeroAllocs(t *testing.T) {
	m := newEvenModel(t, 3, 64)
	s := core.TLC(8)
	order := core.RelaxedFullOrder(s)
	a := NewArena()
	src := rng.New(9)
	if _, err := m.SimulateBlockArena(s, order, WorstCase, src, a); err != nil {
		t.Fatal(err)
	}
	allocs := alloctest.Count(10, func() {
		if _, err := m.SimulateBlockArena(s, order, WorstCase, src, a); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("n-level SimulateBlockArena allocates %d times in 10 blocks, want 0", allocs)
	}
}

// TestArenaRejectsBadOrders: validation still fires on the arena path and
// leaves the arena reusable.
func TestArenaRejectsBadOrders(t *testing.T) {
	m := newModel(t)
	a := NewArena()
	for _, c := range badOrders() {
		if _, err := m.SimulateBlockArena(c.s, c.order, Fresh, rng.New(1), a); err == nil {
			t.Errorf("%s accepted", c.name)
		}
	}
	if _, err := m.SimulateBlockArena(core.MLC(4), core.RPSFullOrder(4), Fresh, rng.New(1), a); err != nil {
		t.Errorf("arena unusable after rejected orders: %v", err)
	}
}
