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
// one stream and on the two-stream hot/cold placement.
func TestTwoPhaseTalliesMatchStreams(t *testing.T) {
	// Twice the test geometry's blocks and word lines: on the test geometry
	// itself the second stream's captive blocks run the chips dry.
	g := nand.TestGeometry()
	g.BlocksPerChip, g.WordLinesPerBlock = 64, 16
	for _, place := range []PlacementPolicy{SinglePlacementPolicy(), HotColdPlacementPolicy(DefaultHotColdParams())} {
		dev, err := nand.NewDevice(nand.Config{Geometry: g, Timing: nand.DefaultTiming(), Rules: core.RPS})
		if err != nil {
			t.Fatal(err)
		}
		k, err := NewFlexFTLPlaced(dev, DefaultConfig(), DefaultFlexParams(), "flexFTL-test", place)
		if err != nil {
			t.Fatal(err)
		}
		o := k.ord.(*twoPhase)
		r := rng.New(uint64(k.streams))
		hot := k.LogicalPages() / 8
		now := sim.Time(0)
		for i := 0; i < 20000; i++ {
			lpn := LPN(r.Int63n(k.LogicalPages()))
			if r.Intn(2) == 0 {
				lpn = LPN(r.Int63n(hot)) // a hot set, so hot/cold uses both streams
			}
			util := []float64{0.05, 0.5, 0.95}[r.Intn(3)]
			if now, err = k.Write(lpn, now, util); err != nil {
				t.Fatalf("streams %d write %d: %v", k.streams, i, err)
			}
			if i%500 == 499 {
				k.Idle(now, now+200*sim.Millisecond)
				now += 200 * sim.Millisecond
			}
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
					t.Fatalf("streams %d write %d chip %d: tallies queued=%d fastLeft=%d, streams hold %d and %d",
						k.streams, i, c, ch.queued, ch.fastLeft, queued, fastLeft)
				}
			}
		}
		if k.St.ForegroundGCs+k.St.BackgroundGCs == 0 {
			t.Fatalf("streams %d: no GC ran; the test must cover relocations", k.streams)
		}
	}
}
