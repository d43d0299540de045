package ftl

import (
	"testing"

	"flexftl/internal/core"
	"flexftl/internal/nand"
	"flexftl/internal/rng"
	"flexftl/internal/sim"
)

// TestTwoPhaseTalliesMatchStreams pins the two-phase order's per-chip
// tallies to the stream state they summarize: after every host write,
// foreground or background GC included, queued must equal the summed slow
// queue lengths and fastLeft the LSB pages left in the open fast blocks, on
// one stream and on the two-stream hot/cold placement, on the test geometry
// and on one with twice its blocks and word lines.
func TestTwoPhaseTalliesMatchStreams(t *testing.T) {
	large := nand.TestGeometry()
	large.BlocksPerChip, large.WordLinesPerBlock = 64, 16
	for _, g := range []nand.Geometry{nand.TestGeometry(), large} {
		for _, place := range []PlacementPolicy{SinglePlacementPolicy(), HotColdPlacementPolicy(DefaultHotColdParams())} {
			k := newTwoPhaseKernel(t, g, place)
			o := k.ord.(*twoPhase)
			driveSkewed(t, k, 20000, func(i int) {
				for c := range o.chips {
					ch := &o.chips[c]
					queued, fastLeft := 0, 0
					for s := range ch.streams {
						st := &ch.streams[s]
						queued += st.sbq.Len()
						if st.afb != -1 {
							fastLeft += k.wordLines - st.afbPos
						}
					}
					if ch.queued != queued || ch.fastLeft != fastLeft {
						t.Fatalf("%v streams %d write %d chip %d: tallies queued=%d fastLeft=%d, streams hold %d and %d",
							g, k.streams, i, c, ch.queued, ch.fastLeft, queued, fastLeft)
					}
				}
			})
			if k.St.ForegroundGCs+k.St.BackgroundGCs == 0 {
				t.Fatalf("%v streams %d: no GC ran; the test must cover relocations", g, k.streams)
			}
		}
	}
}

// TestHotColdKeepsTheReserve is the regression run for a chip drain of the
// two-stream hot/cold placement on the test geometry: a host write whose
// stream had no slow block took the last free block the reserve guard keeps
// for the parity writer and the sibling stream, although the hot stream's
// open fast block had room, and write 14 836's foreground collection then
// failed with "chip 0 out of free blocks for a fast block". Every write of
// the run must succeed, and the pools must reach the reserve level, so the
// reserve valve is exercised.
func TestHotColdKeepsTheReserve(t *testing.T) {
	k := newTwoPhaseKernel(t, nand.TestGeometry(), HotColdPlacementPolicy(DefaultHotColdParams()))
	low := k.Pools[0].FreeCount()
	driveSkewed(t, k, 20000, func(int) {
		for _, p := range k.Pools {
			low = min(low, p.FreeCount())
		}
	})
	if low > k.streams {
		t.Fatalf("free blocks never fell to the reserve (%d); the run does not reach the drain", k.streams)
	}
}

func newTwoPhaseKernel(t *testing.T, g nand.Geometry, place PlacementPolicy) *Kernel {
	t.Helper()
	dev, err := nand.NewDevice(nand.Config{Geometry: g, Timing: nand.DefaultTiming(), Rules: core.RPS})
	if err != nil {
		t.Fatal(err)
	}
	k, err := NewFlexFTLPlaced(dev, DefaultConfig(), DefaultFlexParams(), "flexFTL-test", place)
	if err != nil {
		t.Fatal(err)
	}
	return k
}

// driveSkewed issues n host writes from rng.New(streams): half into a hot
// eighth of the LPNs (so hot/cold uses both streams), utilization drawn
// from {0.05, 0.5, 0.95}, a 200 ms idle window every 500 writes; after
// every write it calls check.
func driveSkewed(t *testing.T, k *Kernel, n int, check func(i int)) {
	t.Helper()
	r := rng.New(uint64(k.streams))
	hot := k.LogicalPages() / 8
	now := sim.Time(0)
	var err error
	for i := 0; i < n; i++ {
		lpn := LPN(r.Int63n(k.LogicalPages()))
		if r.Intn(2) == 0 {
			lpn = LPN(r.Int63n(hot))
		}
		util := []float64{0.05, 0.5, 0.95}[r.Intn(3)]
		if now, err = k.Write(lpn, now, util); err != nil {
			t.Fatalf("%v streams %d write %d: %v", k.Dev.Geometry(), k.streams, i, err)
		}
		if i%500 == 499 {
			k.Idle(now, now+200*sim.Millisecond)
			now += 200 * sim.Millisecond
		}
		check(i)
	}
}
