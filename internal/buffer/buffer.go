// Package buffer models the host-side write buffer of the storage
// controller. flexFTL's policy manager reads its utilization u to decide
// between fast LSB-page writes (u high: burst in progress, drain quickly)
// and slow MSB-page writes (u low: sporadic traffic, spend the cheap pages).
//
// The buffer holds page-sized entries. Entries are admitted at their arrival
// time and released when the flash program that drains them completes, so
// utilization at any instant reflects how far the device has fallen behind
// the host — exactly the signal Section 3.2 describes.
package buffer

import (
	"errors"
	"fmt"

	"flexftl/internal/obs"
	"flexftl/internal/sim"
)

// ErrFull is returned by TryAdmit when the buffer has no free slot.
var ErrFull = errors.New("buffer: full")

// Entry is one buffered page write.
type Entry struct {
	LPN      int64    // logical page number
	Arrived  sim.Time // host submission time
	released bool
}

// Buffer is a fixed-capacity pool of page-write slots with occupancy
// accounting. Programs complete out of admission order, so the buffer keeps
// no queue of its entries: callers hold the handles and release each one when
// its program is done. Not safe for concurrent use (the simulator is
// single-threaded over virtual time).
type Buffer struct {
	capacity int
	occupied int // admitted-but-not-released entries
	peakOcc  int
	admitted int64
	util     *obs.Gauge // observability: live utilization (nil when disabled)
	// entries backs every Entry handed out and freeList parks the released
	// ones for TryAdmit to reuse. Both are made at full capacity on the first
	// admission, so admission and release allocate nothing after it.
	entries  []Entry
	freeList []*Entry
}

// New returns a buffer holding up to capacity page entries.
func New(capacity int) *Buffer {
	if capacity <= 0 {
		panic("buffer: capacity must be positive")
	}
	return &Buffer{capacity: capacity}
}

// Instrument attaches a gauge tracking utilization u on every admit and
// release (the flexFTL policy input, live for registry snapshots). A nil
// gauge detaches.
func (b *Buffer) Instrument(g *obs.Gauge) {
	b.util = g
	g.Set(b.Utilization())
}

// Occupied returns the number of pages currently held.
func (b *Buffer) Occupied() int { return b.occupied }

// PeakOccupied returns the high-water mark.
func (b *Buffer) PeakOccupied() int { return b.peakOcc }

// Admitted returns the total number of pages ever admitted.
func (b *Buffer) Admitted() int64 { return b.admitted }

// Utilization returns u in [0,1]: occupied slots over capacity.
func (b *Buffer) Utilization() float64 {
	return float64(b.occupied) / float64(b.capacity)
}

// Free returns the number of free slots.
func (b *Buffer) Free() int { return b.capacity - b.occupied }

// TryAdmit takes a slot for a page write, failing with ErrFull when none is
// free. The returned entry is the handle to release later.
func (b *Buffer) TryAdmit(lpn int64, now sim.Time) (*Entry, error) {
	if b.occupied >= b.capacity {
		return nil, ErrFull
	}
	if b.entries == nil {
		b.entries = make([]Entry, 0, b.capacity)
		b.freeList = make([]*Entry, 0, b.capacity)
	}
	// With a slot free and none parked, fewer than capacity entries have
	// been handed out, so the slab has room and never moves.
	var e *Entry
	if n := len(b.freeList); n > 0 {
		e = b.freeList[n-1]
		b.freeList = b.freeList[:n-1]
	} else {
		b.entries = b.entries[:len(b.entries)+1]
		e = &b.entries[len(b.entries)-1]
	}
	*e = Entry{LPN: lpn, Arrived: now}
	b.occupied++
	b.admitted++
	if b.occupied > b.peakOcc {
		b.peakOcc = b.occupied
	}
	b.util.Set(b.Utilization())
	return e, nil
}

// Release frees the slot held by e (its flash program completed). Releasing
// twice is a simulator bug and errors.
func (b *Buffer) Release(e *Entry) error {
	if e == nil {
		return errors.New("buffer: Release(nil)")
	}
	if e.released {
		return fmt.Errorf("buffer: double release of LPN %d", e.LPN)
	}
	e.released = true
	b.occupied--
	b.util.Set(b.Utilization())
	// A released entry is dead to its holder, so it can back the next
	// admission.
	b.freeList = append(b.freeList, e)
	return nil
}
