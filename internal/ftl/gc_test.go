package ftl

import (
	"strings"
	"testing"

	"flexftl/internal/core"
	"flexftl/internal/nand"
	"flexftl/internal/obs"
	"flexftl/internal/sim"
)

// gcHarness is a minimal FTL-like environment for exercising the shared GC
// engine directly: pages are placed sequentially (RPSfull order) on chip 0.
type gcHarness struct {
	b      *Base
	blk    int
	pos    int
	orders []core.Page
}

func newGCHarness(t *testing.T) *gcHarness {
	t.Helper()
	dev, err := nand.NewDevice(nand.Config{
		Geometry: nand.TestGeometry(), Timing: nand.DefaultTiming(), Rules: core.RPS,
	})
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewBase(dev, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	h := &gcHarness{b: b, blk: -1, orders: core.RPSFullOrder(dev.Geometry().WordLinesPerBlock)}
	return h
}

// alloc is the relocation callback: sequential placement, no GC recursion.
func (h *gcHarness) alloc(chip int, lpn LPN, data, spare []byte, now sim.Time) (sim.Time, error) {
	if h.blk == -1 {
		blk, ok := h.b.Pools[0].PopFree()
		if !ok {
			panic("harness out of blocks")
		}
		h.blk, h.pos = blk, 0
	}
	addr := nand.PageAddr{BlockAddr: nand.BlockAddr{Chip: 0, Block: h.blk}, Page: h.orders[h.pos]}
	done, err := h.b.Dev.Program(addr, data, spare, now)
	if err != nil {
		return now, err
	}
	h.b.Map.Update(lpn, h.b.Dev.Geometry().PPNOf(addr))
	h.pos++
	if h.pos == len(h.orders) {
		h.b.Pools[0].PushFull(h.blk)
		h.blk = -1
	}
	return done, nil
}

// writeSeq writes n distinct LPNs through alloc (host-side placement), each
// page with its token and its LPN in the spare, as the FTLs write.
func (h *gcHarness) writeSeq(t *testing.T, start, n int, now sim.Time) sim.Time {
	t.Helper()
	for i := 0; i < n; i++ {
		var err error
		lpn := LPN(start + i)
		now, err = h.alloc(0, lpn, h.b.Token(lpn), h.b.Spare(lpn), now)
		if err != nil {
			t.Fatal(err)
		}
	}
	return now
}

func TestRunBackgroundGCCollectsFullyInvalidVictim(t *testing.T) {
	h := newGCHarness(t)
	g := h.b.Dev.Geometry()
	perBlock := g.PagesPerBlock()
	// Fill one block, then overwrite every LPN so it is fully invalid.
	now := h.writeSeq(t, 0, perBlock, 0)
	now = h.writeSeq(t, 0, perBlock, now)
	free0 := h.b.Pools[0].FreeCount()
	end := h.b.RunBackgroundGC(now, now+10*sim.Second, func() bool { return true }, h.alloc)
	if end <= now {
		t.Error("background GC consumed no virtual time")
	}
	if h.b.Pools[0].FreeCount() <= free0 {
		t.Errorf("no block reclaimed: free %d -> %d", free0, h.b.Pools[0].FreeCount())
	}
	if h.b.St.Erases == 0 || h.b.St.BackgroundGCs == 0 {
		t.Errorf("stats not updated: %+v", h.b.St)
	}
	// A fully invalid victim needs zero copies.
	if h.b.St.GCCopies != 0 {
		t.Errorf("fully invalid victim caused %d copies", h.b.St.GCCopies)
	}
}

// TestBackgroundGCTagsCauseGC: every device operation inside the shared GC
// engine — reads, relocation programs, the erase — is attributed to the GC
// cause, and the ambient cause is restored afterwards.
func TestBackgroundGCTagsCauseGC(t *testing.T) {
	h := newGCHarness(t)
	rec := obs.NewRecorder(obs.Options{})
	h.b.SetRecorder(rec)
	g := h.b.Dev.Geometry()
	perBlock := g.PagesPerBlock()
	now := h.writeSeq(t, 0, perBlock, 0)
	now = h.writeSeq(t, 0, perBlock/2, now)
	hostBusy := h.b.Dev.CauseBusy()[obs.CauseHost]
	if hostBusy == 0 {
		t.Fatal("host writes charged no host busy time")
	}
	h.b.RunBackgroundGC(now, now+10*sim.Second, func() bool { return true }, h.alloc)
	busy := h.b.Dev.CauseBusy()
	if busy[obs.CauseGC] == 0 {
		t.Error("background GC charged no gc busy time")
	}
	if busy[obs.CauseHost] != hostBusy {
		t.Errorf("host busy moved during GC: %v -> %v", hostBusy, busy[obs.CauseHost])
	}
	if h.b.Dev.Cause() != obs.CauseHost {
		t.Errorf("ambient cause after GC = %v, want CauseHost", h.b.Dev.Cause())
	}
	snap := rec.Registry().Snapshot()
	if got := snap.Counters[obs.BusyCounterName("nand", obs.CauseGC)]; got != int64(busy[obs.CauseGC]) {
		t.Errorf("nand.busy_us.gc counter = %d, array = %d", got, busy[obs.CauseGC])
	}
}

func TestRunBackgroundGCIncrementalResume(t *testing.T) {
	h := newGCHarness(t)
	g := h.b.Dev.Geometry()
	perBlock := g.PagesPerBlock()
	// Block with exactly half its pages invalid.
	now := h.writeSeq(t, 0, perBlock, 0)
	now = h.writeSeq(t, 0, perBlock/2, now)
	tm := h.b.Dev.Timing()
	perPage := tm.Read + 2*tm.BusXfer + tm.ProgMSB
	// Window for exactly two page relocations: the victim must stay active.
	end := h.b.RunBackgroundGC(now, now+2*perPage+1, func() bool { return true }, h.alloc)
	if !h.b.bg.active {
		t.Fatal("victim not held across the window boundary")
	}
	copiesAfterFirst := h.b.St.GCCopies
	if copiesAfterFirst == 0 {
		t.Fatal("no relocation happened in the first window")
	}
	if copiesAfterFirst >= int64(perBlock/2) {
		t.Fatalf("first tiny window relocated everything (%d copies)", copiesAfterFirst)
	}
	// Second, generous window finishes the victim.
	h.b.RunBackgroundGC(end, end+10*sim.Second, func() bool { return true }, h.alloc)
	if h.b.bg.active {
		t.Error("victim still active after a generous window")
	}
	if h.b.St.GCCopies != int64(perBlock/2) {
		t.Errorf("total copies = %d, want %d (the valid half)", h.b.St.GCCopies, perBlock/2)
	}
	if h.b.St.Erases != 1 {
		t.Errorf("erases = %d, want 1", h.b.St.Erases)
	}
	// Only one background invocation should be counted for one victim.
	if h.b.St.BackgroundGCs != 1 {
		t.Errorf("background GC invocations = %d, want 1", h.b.St.BackgroundGCs)
	}
}

func TestRunBackgroundGCStopsWhenNotWanted(t *testing.T) {
	h := newGCHarness(t)
	g := h.b.Dev.Geometry()
	now := h.writeSeq(t, 0, g.PagesPerBlock(), 0)
	now = h.writeSeq(t, 0, g.PagesPerBlock(), now)
	h.b.RunBackgroundGC(now, now+10*sim.Second, func() bool { return false }, h.alloc)
	if h.b.St.BackgroundGCs != 0 {
		t.Error("GC ran despite shouldRun() == false")
	}
}

func TestRunBackgroundGCAbandonsUnreadableVictim(t *testing.T) {
	h := newGCHarness(t)
	g := h.b.Dev.Geometry()
	perBlock := g.PagesPerBlock()
	now := h.writeSeq(t, 0, perBlock, 0)
	now = h.writeSeq(t, 0, perBlock/2, now)
	// Corrupt a still-valid page of the upcoming victim (block 0).
	victimPPN := nand.PPN(-1)
	for i := 0; i < perBlock; i++ {
		if _, ok := h.b.Map.LPNAt(nand.PPN(i)); ok {
			victimPPN = nand.PPN(i)
			break
		}
	}
	if victimPPN < 0 {
		t.Fatal("no valid page in block 0")
	}
	if err := h.b.Dev.CorruptPage(g.AddrOfPPN(victimPPN)); err != nil {
		t.Fatal(err)
	}
	fullBefore := h.b.Pools[0].FullCount()
	h.b.RunBackgroundGC(now, now+10*sim.Second, func() bool { return true }, h.alloc)
	if h.b.bg.active {
		t.Error("unreadable victim left active")
	}
	// The victim must be back on the full list (not leaked off-list).
	// Other victims may have been collected meanwhile, so only check the
	// corrupted block is still tracked somewhere.
	found := false
	for _, blk := range h.b.Pools[0].FullBlocks() {
		if blk == 0 {
			found = true
		}
	}
	if !found {
		t.Errorf("corrupted victim not returned to the full list (full %d -> %d)",
			fullBefore, h.b.Pools[0].FullCount())
	}
}

func TestRunBackgroundGCPanicsOnAllocFailure(t *testing.T) {
	h := newGCHarness(t)
	g := h.b.Dev.Geometry()
	perBlock := g.PagesPerBlock()
	now := h.writeSeq(t, 0, perBlock, 0)
	now = h.writeSeq(t, 0, perBlock/2, now)
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("alloc failure did not panic")
		}
		if !strings.Contains(r.(string), "background GC relocation") {
			t.Errorf("unexpected panic: %v", r)
		}
	}()
	h.b.RunBackgroundGC(now, now+10*sim.Second, func() bool { return true },
		func(chip int, lpn LPN, data, spare []byte, now sim.Time) (sim.Time, error) {
			return now, nand.ErrBadBlock
		})
}

func TestBGCWantedHysteresis(t *testing.T) {
	dev, err := nand.NewDevice(nand.Config{
		Geometry: nand.TestGeometry(), Timing: nand.DefaultTiming(), Rules: core.RPS,
	})
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewBase(dev, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	total := dev.Geometry().TotalBlocks()
	trigger := int(b.Cfg.GCFreeFraction * float64(total))
	// Drain free blocks to below the trigger.
	var taken []int
	for b.TotalFreeBlocks() >= trigger {
		blk, ok := b.Pools[0].PopFree()
		if !ok {
			for c := 1; c < len(b.Pools); c++ {
				if blk, ok = b.Pools[c].PopFree(); ok {
					taken = append(taken, c*1000+blk)
					break
				}
			}
			continue
		}
		taken = append(taken, blk)
	}
	if !b.BGCWanted() {
		t.Fatal("BGCWanted false below the trigger")
	}
	// Refill to just above the trigger: hysteresis holds the latch.
	for b.TotalFreeBlocks() < trigger+1 {
		b.Pools[0].PushFree(9999)
	}
	if !b.BGCWanted() {
		t.Error("hysteresis released before the 1.5x cushion")
	}
	// Refill past 1.5x: latch releases.
	for float64(b.TotalFreeBlocks()) < 1.5*b.Cfg.GCFreeFraction*float64(total) {
		b.Pools[0].PushFree(9999)
	}
	if b.BGCWanted() {
		t.Error("latch held above the release threshold")
	}
}

func TestEstimateGCCost(t *testing.T) {
	tm := nand.DefaultTiming()
	zero := EstimateGCCost(tm, 2, 0)
	if zero != tm.Erase {
		t.Errorf("zero-valid cost = %v, want erase only", zero)
	}
	if EstimateGCCost(tm, 2, 10) <= EstimateGCCost(tm, 2, 5) {
		t.Error("cost not monotone in valid pages")
	}
	// A copy is budgeted at the finest level's program latency: MSB on MLC,
	// the third-level program on TLC.
	tlc := nand.TLCTiming()
	if got, want := GCPageCopyCost(tm, 2), tm.Read+2*tm.BusXfer+tm.ProgMSB; got != want {
		t.Errorf("MLC copy cost = %v, want %v", got, want)
	}
	if got, want := GCPageCopyCost(tlc, 3), tlc.Read+2*tlc.BusXfer+tlc.ProgFiner[0]; got != want {
		t.Errorf("TLC copy cost = %v, want %v", got, want)
	}
}

func TestPickNeediestVictim(t *testing.T) {
	h := newGCHarness(t)
	g := h.b.Dev.Geometry()
	if _, _, ok := PickNeediestVictim(h.b); ok {
		t.Error("victim found on empty device")
	}
	perBlock := g.PagesPerBlock()
	now := h.writeSeq(t, 0, perBlock, 0)
	_ = h.writeSeq(t, 0, perBlock, now)
	chip, victim, ok := PickNeediestVictim(h.b)
	if !ok || chip != 0 {
		t.Fatalf("victim = chip %d, %v", chip, ok)
	}
	if got := h.b.Map.ValidCount(nand.BlockAddr{Chip: 0, Block: victim}); got != 0 {
		t.Errorf("greedy victim has %d valid pages, expected the fully-invalid block", got)
	}
}
