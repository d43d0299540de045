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

// TestFPSPoolPickMatchesScan: the pool order's cached next-page types and
// per-chip empty-slot counts choose exactly the slot the plain scan of the
// block order chooses — the first slot with the highest pos among those whose
// next page is of the wanted type — after every host write, with host
// writes preferring fast pages and then slow ones, foreground GC, and idle
// windows of random length that drain, pad and refill slots.
func TestFPSPoolPickMatchesScan(t *testing.T) {
	var pads, copies int64
	fallbacks, refills := 0, 0
	for seed := uint64(1); seed <= 4; seed++ {
		host, gc := PrefFast, PrefSlow
		if seed%2 == 0 {
			host, gc = gc, host
		}
		g := nand.TestGeometry()
		g.BlocksPerChip, g.WordLinesPerBlock = 64, 16
		dev, err := nand.NewDevice(nand.Config{Geometry: g, Timing: nand.DefaultTiming(), Rules: core.FPS})
		if err != nil {
			t.Fatal(err)
		}
		k, err := NewKernel(dev, DefaultConfig(), KernelSpec{
			Name:   "fpsPool-test",
			Order:  FPSPoolOrderPolicy(RTFActiveBlocksPerChip),
			Backup: PairParityBackup(FPSParityPairSize),
			Alloc:  FixedAllocPolicy(host, gc),
		})
		if err != nil {
			t.Fatal(err)
		}
		o := k.ord.(*fpsPool)
		r := rng.New(seed)
		now := sim.Time(0)
		for i := 0; i < 20000; i++ {
			lpn := LPN(r.Int63n(k.LogicalPages()))
			util := []float64{0.05, 0.5, 0.95}[r.Intn(3)]
			emptyBefore := o.empty[k.rr]
			if now, err = k.Write(lpn, now, util); err != nil {
				t.Fatalf("seed %d write %d: %v", seed, i, err)
			}
			if emptyBefore > 0 {
				refills++
			}
			if r.Intn(300) == 0 {
				d := sim.Time(1+r.Intn(200)) * sim.Millisecond
				k.Idle(now, now+d)
				now += d
			}
			for c := range o.active {
				empty := 0
				for s, cur := range o.active[c] {
					if cur.blk == -1 {
						empty++
					} else if cur.lsb != (o.order[cur.pos].Type == core.LSB) {
						t.Fatalf("seed %d write %d chip %d slot %d: cached lsb %v at pos %d", seed, i, c, s, cur.lsb, cur.pos)
					}
				}
				if o.empty[c] != empty {
					t.Fatalf("seed %d write %d chip %d: empty count %d, slots hold %d", seed, i, c, o.empty[c], empty)
				}
				for _, want := range []bool{true, false} {
					got, ref := o.pickSlot(c, want), scanPickSlot(o, c, want)
					if got != ref {
						t.Fatalf("seed %d write %d chip %d wantLSB %v: picked slot %d, scan picks %d", seed, i, c, want, got, ref)
					}
					if got == -1 && o.empty[c] < o.slots {
						fallbacks++
					}
				}
			}
		}
		pads += k.St.PadWrites
		copies += k.St.GCCopies
	}
	if pads == 0 || copies == 0 || refills == 0 || fallbacks == 0 {
		t.Fatalf("pads %d, GC copies %d, refilling writes %d, one-type pools %d; the runs must cover each",
			pads, copies, refills, fallbacks)
	}
}

// scanPickSlot is pickSlot before the cached page types: a scan that reads
// each open slot's next page type from the block order.
func scanPickSlot(o *fpsPool, chip int, wantLSB bool) int {
	best, bestPos := -1, -1
	for s, cur := range o.active[chip] {
		if cur.blk == -1 {
			continue
		}
		if (o.order[cur.pos].Type == core.LSB) == wantLSB && cur.pos > bestPos {
			best, bestPos = s, cur.pos
		}
	}
	return best
}
