package buffer

import (
	"errors"
	"testing"
	"testing/quick"

	"flexftl/internal/alloctest"
	"flexftl/internal/rng"
)

func TestNewPanicsOnBadCapacity(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("New(0) did not panic")
		}
	}()
	New(0)
}

func TestAdmitRelease(t *testing.T) {
	b := New(2)
	e1, err := b.TryAdmit(100, 0)
	if err != nil {
		t.Fatal(err)
	}
	if b.Occupied() != 1 || b.Utilization() != 0.5 || b.Free() != 1 {
		t.Errorf("occ=%d u=%v free=%d", b.Occupied(), b.Utilization(), b.Free())
	}
	e2, err := b.TryAdmit(101, 5)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := b.TryAdmit(102, 6); !errors.Is(err, ErrFull) {
		t.Errorf("overfull admit err = %v", err)
	}
	if err := b.Release(e1); err != nil {
		t.Fatal(err)
	}
	if b.Occupied() != 1 {
		t.Errorf("occ after release = %d", b.Occupied())
	}
	if err := b.Release(e1); err == nil {
		t.Error("double release succeeded")
	}
	if err := b.Release(nil); err == nil {
		t.Error("nil release succeeded")
	}
	if err := b.Release(e2); err != nil {
		t.Fatal(err)
	}
	if b.Occupied() != 0 || b.PeakOccupied() != 2 || b.Admitted() != 2 {
		t.Errorf("final state occ=%d peak=%d admitted=%d", b.Occupied(), b.PeakOccupied(), b.Admitted())
	}
}

// A released entry backs the next admission, reset: steady-state admission
// allocates nothing and a recycled handle can be released again.
func TestReleasedEntryIsRecycled(t *testing.T) {
	b := New(4)
	e1, _ := b.TryAdmit(1, 10)
	e2, _ := b.TryAdmit(2, 20)
	if err := b.Release(e1); err != nil {
		t.Fatal(err)
	}
	e3, err := b.TryAdmit(3, 30)
	if err != nil {
		t.Fatal(err)
	}
	if e3 != e1 {
		t.Error("admission after a release did not reuse the released entry")
	}
	if e3.LPN != 3 || e3.Arrived != 30 {
		t.Errorf("recycled entry = %+v, want LPN 3 arrived 30", *e3)
	}
	if e2.LPN != 2 || e2.Arrived != 20 {
		t.Errorf("live entry disturbed by recycling: %+v", *e2)
	}
	if err := b.Release(e3); err != nil {
		t.Errorf("release of a recycled entry: %v", err)
	}
	if b.Occupied() != 1 || b.Admitted() != 3 {
		t.Errorf("occ=%d admitted=%d, want 1 and 3", b.Occupied(), b.Admitted())
	}
	held := e2
	if allocs := alloctest.Count(100, func() {
		if err := b.Release(held); err != nil {
			t.Fatal(err)
		}
		if held, err = b.TryAdmit(9, 0); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Errorf("100 release+admit pairs allocate %d times, want 0", allocs)
	}
}

func TestOutOfOrderRelease(t *testing.T) {
	// Flash programs can complete out of admission order (different chips);
	// the buffer must cope.
	b := New(3)
	e1, _ := b.TryAdmit(1, 0)
	e2, _ := b.TryAdmit(2, 0)
	e3, _ := b.TryAdmit(3, 0)
	if err := b.Release(e2); err != nil {
		t.Fatal(err)
	}
	if b.Occupied() != 2 || b.Free() != 1 {
		t.Errorf("after middle release occ=%d free=%d, want 2 and 1", b.Occupied(), b.Free())
	}
	if err := b.Release(e2); err == nil {
		t.Error("double release of the middle entry succeeded")
	}
	if err := b.Release(e1); err != nil {
		t.Fatal(err)
	}
	if e3.LPN != 3 {
		t.Errorf("live entry disturbed by earlier releases: %+v", *e3)
	}
	if err := b.Release(e3); err != nil {
		t.Fatal(err)
	}
	if b.Occupied() != 0 || b.PeakOccupied() != 3 {
		t.Errorf("drained occ=%d peak=%d, want 0 and 3", b.Occupied(), b.PeakOccupied())
	}
	// Slots fully recycled.
	for i := 0; i < 3; i++ {
		if _, err := b.TryAdmit(int64(i), 1); err != nil {
			t.Fatalf("re-admission %d failed: %v", i, err)
		}
	}
	if _, err := b.TryAdmit(9, 1); !errors.Is(err, ErrFull) {
		t.Errorf("admission past capacity after recycling: err = %v", err)
	}
}

// Property: occupancy always equals admits minus releases and never exceeds
// capacity, under random interleavings.
func TestOccupancyInvariantProperty(t *testing.T) {
	f := func(seed uint64, capRaw uint8) bool {
		capacity := 1 + int(capRaw%32)
		src := rng.New(seed)
		b := New(capacity)
		var live []*Entry
		admits, releases := 0, 0
		for op := 0; op < 300; op++ {
			if len(live) > 0 && src.Bool(0.5) {
				i := src.Intn(len(live))
				if b.Release(live[i]) != nil {
					return false
				}
				live = append(live[:i], live[i+1:]...)
				releases++
			} else {
				e, err := b.TryAdmit(int64(op), 0)
				if errors.Is(err, ErrFull) {
					if len(live) != capacity {
						return false
					}
					continue
				}
				if err != nil {
					return false
				}
				live = append(live, e)
				admits++
			}
			if b.Occupied() != admits-releases || b.Occupied() > capacity || b.Occupied() < 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// TestFillDrainAllocatesNothing: after the first admission, which makes the
// entry slab and the free list at full capacity, filling the buffer and
// draining it, in either order, allocates nothing however many times. Each
// measured call takes a buffer that has admitted once and no more.
func TestFillDrainAllocatesNothing(t *testing.T) {
	const capacity, runs, rounds = 128, 10, 20
	var fresh []*Buffer
	for i := 0; i <= runs; i++ { // AllocsPerRun adds one warm-up call
		b := New(capacity)
		e, err := b.TryAdmit(0, 0)
		if err != nil {
			t.Fatal(err)
		}
		if err := b.Release(e); err != nil {
			t.Fatal(err)
		}
		fresh = append(fresh, b)
	}
	held := make([]*Entry, 0, capacity)
	allocs := alloctest.Count(runs, func() {
		b := fresh[0]
		fresh = fresh[1:]
		for round := 0; round < rounds; round++ {
			for len(held) < capacity {
				e, err := b.TryAdmit(int64(len(held)), 0)
				if err != nil {
					t.Fatal(err)
				}
				held = append(held, e)
			}
			for i := range held {
				if round%2 == 1 {
					i = len(held) - 1 - i // newest first on odd rounds
				}
				if err := b.Release(held[i]); err != nil {
					t.Fatal(err)
				}
			}
			held = held[:0]
		}
		if b.PeakOccupied() != capacity || b.Occupied() != 0 {
			t.Errorf("peak %d, occupied %d; want %d and 0", b.PeakOccupied(), b.Occupied(), capacity)
		}
	})
	if allocs != 0 {
		t.Errorf("%d fills and drains of %d entries: %d allocations in %d buffers, want 0", rounds, capacity, allocs, runs)
	}
}
