package ftl

import (
	"errors"
	"testing"

	"flexftl/internal/alloctest"
	"flexftl/internal/core"
	"flexftl/internal/nand"
	"flexftl/internal/rel"
	"flexftl/internal/sim"
)

// relTestKernel builds a registry-equivalent kernel over a device carrying
// the default reliability model. policy == nil is the detect-only
// configuration (the device classifies reads, the kernel never responds).
func relTestKernel(t *testing.T, scheme string, policy *RelPolicy) *Kernel {
	t.Helper()
	rules := core.FPS
	if scheme == "flexFTL" {
		rules = core.RPS
	}
	rc := rel.DefaultConfig(1)
	dev, err := nand.NewDevice(nand.Config{
		Geometry: nand.TestGeometry(), Timing: nand.DefaultTiming(), Rules: rules,
		Reliability: &rc,
	})
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.Reliability = policy
	var k *Kernel
	switch scheme {
	case "flexFTL":
		k, err = NewFlexFTL(dev, cfg, DefaultFlexParams())
	case "pageFTL":
		k, err = NewPageFTL(dev, cfg)
	default:
		t.Fatalf("unknown scheme %q", scheme)
	}
	if err != nil {
		t.Fatal(err)
	}
	return k
}

// writeLPNs writes LPNs [0,n) sequentially and returns the reached time.
func writeLPNs(t *testing.T, k *Kernel, n int) sim.Time {
	t.Helper()
	now := sim.Time(0)
	for lpn := 0; lpn < n; lpn++ {
		done, err := k.Write(LPN(lpn), now, 0.5)
		if err != nil {
			t.Fatalf("write LPN %d: %v", lpn, err)
		}
		now = done
	}
	return now
}

func TestRelPolicyValidate(t *testing.T) {
	bad := []RelPolicy{
		{TargetPageFailure: 0, RefreshFraction: 0.6, RetireFraction: 0.9},
		{TargetPageFailure: 1, RefreshFraction: 0.6, RetireFraction: 0.9},
		{TargetPageFailure: 1e-4, RefreshFraction: 0, RetireFraction: 0.9},
		{TargetPageFailure: 1e-4, RefreshFraction: 1.1, RetireFraction: 0.9},
		{TargetPageFailure: 1e-4, RefreshFraction: 0.6, RetireFraction: 0},
		{TargetPageFailure: 1e-4, RefreshFraction: 0.9, RetireFraction: 0.6},
		{TargetPageFailure: 1e-4, RefreshFraction: 0.6, RetireFraction: 0.9, ScrubReadsPerIdle: -1},
	}
	for i, p := range bad {
		p := p
		if err := p.Validate(); err == nil {
			t.Errorf("policy %d (%+v) validated", i, p)
		}
	}
	if err := DefaultRelPolicy().Validate(); err != nil {
		t.Errorf("default policy rejected: %v", err)
	}
}

// TestRelPolicyNeedsModel: configuring kernel responses on a model-less
// device must fail at construction, not silently act on zero BERs.
func TestRelPolicyNeedsModel(t *testing.T) {
	dev, err := nand.NewDevice(nand.Config{
		Geometry: nand.TestGeometry(), Timing: nand.DefaultTiming(), Rules: core.FPS,
	})
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.Reliability = DefaultRelPolicy()
	if _, err := NewPageFTL(dev, cfg); err == nil {
		t.Fatal("kernel with reliability policy built over a device without a model")
	}
}

// TestHostReadRebuildFromParity: on a parity-backed scheme, a page pinned
// ECC-uncorrectable whose block parity is still live is rebuilt transparently
// on the host read — the read succeeds, returns the acknowledged payload, and
// counts as an ECC rebuild, not a loss.
func TestHostReadRebuildFromParity(t *testing.T) {
	k := relTestKernel(t, "flexFTL", DefaultRelPolicy())
	g := k.Dev.Geometry()
	// Enough writes to complete several blocks' fast phases (parity live)
	// without the slow phase finishing behind them.
	n := g.Chips() * g.LSBPagesPerBlock() * 2
	now := writeLPNs(t, k, n)

	rebuilt := false
	for lpn := n - 1; lpn >= 0 && !rebuilt; lpn-- {
		ppn, ok := k.Map.Lookup(LPN(lpn))
		if !ok {
			t.Fatalf("LPN %d unmapped after write", lpn)
		}
		addr := g.AddrOfPPN(ppn)
		if addr.Page.Type != core.LSB {
			continue
		}
		if err := k.Dev.MarkLost(addr); err != nil {
			t.Fatal(err)
		}
		done, err := k.Read(LPN(lpn), now)
		if err != nil {
			// This stripe's parity was already recycled — a detected loss,
			// allowed; try an earlier LPN.
			if !errors.Is(err, rel.ErrUncorrectable) {
				t.Fatalf("read of lost LPN %d: %v", lpn, err)
			}
			continue
		}
		if got, ok := TokenLPN(k.Buf.Data); !ok || got != LPN(lpn) {
			t.Fatalf("rebuilt read of LPN %d returned token for %d (ok=%v)", lpn, got, ok)
		}
		if k.St.ECCRebuilds == 0 {
			t.Fatal("successful read of a lost page did not count as a rebuild")
		}
		now = done
		rebuilt = true
	}
	if !rebuilt {
		t.Fatal("no lost LSB page could be rebuilt from parity (refs never live?)")
	}
}

// TestDetectOnlyStickyLoss: without parity (and without responses), an
// uncorrectable page fails loudly — and keeps failing on every later read
// (the loss may never be masked by per-read model variance).
func TestDetectOnlyStickyLoss(t *testing.T) {
	k := relTestKernel(t, "pageFTL", nil)
	g := k.Dev.Geometry()
	n := g.PagesPerBlock()
	now := writeLPNs(t, k, n)

	lpn := LPN(0)
	ppn, ok := k.Map.Lookup(lpn)
	if !ok {
		t.Fatal("LPN 0 unmapped")
	}
	if err := k.Dev.MarkLost(g.AddrOfPPN(ppn)); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		_, err := k.Read(lpn, now)
		if !errors.Is(err, rel.ErrUncorrectable) {
			t.Fatalf("read %d of lost page: %v, want rel.ErrUncorrectable", i, err)
		}
	}
	if k.St.UncorrectableReads != 3 {
		t.Errorf("UncorrectableReads = %d, want 3", k.St.UncorrectableReads)
	}
	// The mapping must survive: the loss is reported per read, not silently
	// converted into an unmapped page.
	if _, ok := k.Map.Lookup(lpn); !ok {
		t.Error("lost LPN dropped from the mapping table")
	}
}

// TestGCRelocatesLostPage: garbage collection of a block holding an
// unrepairable page carries the loss along — the relocation target is pinned
// uncorrectable too, so later host reads still detect it, and the event is
// counted as a GC read loss.
func TestGCRelocatesLostPage(t *testing.T) {
	k := relTestKernel(t, "pageFTL", nil)
	g := k.Dev.Geometry()
	// Fill a few blocks so at least one is on a full list.
	n := g.PagesPerBlock() * 4
	now := writeLPNs(t, k, n)

	var lpn LPN = -1
	var victim nand.BlockAddr
	for l := 0; l < n; l++ {
		ppn, ok := k.Map.Lookup(LPN(l))
		if !ok {
			continue
		}
		addr := g.AddrOfPPN(ppn)
		if k.Pools[addr.Chip].IsFull(addr.Block) {
			lpn, victim = LPN(l), addr.BlockAddr
			if err := k.Dev.MarkLost(addr); err != nil {
				t.Fatal(err)
			}
			break
		}
	}
	if lpn < 0 {
		t.Fatal("no written LPN landed in a full block")
	}
	if _, err := k.CollectVictim(victim.Chip, victim.Block, now, k.gcAlloc); err != nil {
		t.Fatalf("collect victim with a lost page: %v", err)
	}
	if k.St.GCReadLosses != 1 {
		t.Errorf("GCReadLosses = %d, want 1", k.St.GCReadLosses)
	}
	newPPN, ok := k.Map.Lookup(lpn)
	if !ok {
		t.Fatal("lost LPN unmapped after GC relocation")
	}
	if g.AddrOfPPN(newPPN).BlockAddr == victim {
		t.Fatal("lost LPN still maps into the erased victim")
	}
	if _, err := k.Read(lpn, now+sim.Second); !errors.Is(err, rel.ErrUncorrectable) {
		t.Fatalf("read of relocated lost page: %v, want rel.ErrUncorrectable", err)
	}
}

// TestMaybeRetire: a block whose post-erase BER sits over the retire line
// leaves service; a lightly worn block does not.
func TestMaybeRetire(t *testing.T) {
	k := relTestKernel(t, "pageFTL", DefaultRelPolicy())
	light, ok := k.Pools[0].PopFree()
	if !ok {
		t.Fatal("no free block")
	}
	heavy, ok := k.Pools[0].PopFree()
	if !ok {
		t.Fatal("no free block")
	}
	wear := func(blk, cycles int) {
		for i := 0; i < cycles; i++ {
			if _, err := k.Dev.Erase(nand.BlockAddr{Chip: 0, Block: blk}, 0); err != nil {
				t.Fatal(err)
			}
		}
	}
	wear(light, 1000)
	wear(heavy, 12000)
	if k.maybeRetire(0, light) {
		t.Error("1K-cycle block retired")
	}
	if !k.maybeRetire(0, heavy) {
		t.Error("12K-cycle block stayed in service")
	}
	if k.St.RetiredBlocks != 1 {
		t.Errorf("RetiredBlocks = %d, want 1", k.St.RetiredBlocks)
	}
	a := nand.PageAddr{BlockAddr: nand.BlockAddr{Chip: 0, Block: heavy}, Page: core.Page{WL: 0, Type: core.LSB}}
	if _, err := k.Dev.Program(a, []byte("x"), nil, 0); !errors.Is(err, nand.ErrBadBlock) {
		t.Errorf("program on retired block: %v, want ErrBadBlock", err)
	}
}

// TestCleanReadZeroAllocs guards the hot path: a host read with the
// reliability model mounted must not allocate — not when it is clean, not
// when it walks the retry ladder on a worn device, and not when it is the
// first read of its stress bucket and the device builds the bucket's bracket.
func TestCleanReadZeroAllocs(t *testing.T) {
	cases := []struct {
		name    string
		preWear int
		// step advances the clock between reads. An hour is several of the
		// device's age buckets, so every read misses its bracket table.
		step        sim.Time
		wantRetries bool
	}{
		{name: "clean"},
		{name: "retried", preWear: 6000, wantRetries: true},
		{name: "table-miss", preWear: 6000, step: 3600 * sim.Second, wantRetries: true},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			k := relTestKernel(t, "pageFTL", DefaultRelPolicy())
			g := k.Dev.Geometry()
			for chip := 0; chip < g.Chips(); chip++ {
				for blk := 0; blk < g.BlocksPerChip; blk++ {
					for i := 0; i < tc.preWear; i++ {
						if _, err := k.Dev.Erase(nand.BlockAddr{Chip: chip, Block: blk}, 0); err != nil {
							t.Fatal(err)
						}
					}
				}
			}
			now := writeLPNs(t, k, 4)
			before := k.Dev.RelCounts()
			allocs := alloctest.Count(200, func() {
				now += tc.step
				if _, err := k.Read(LPN(1), now); err != nil {
					t.Fatal(err)
				}
			})
			if allocs != 0 {
				t.Errorf("200 reads allocate %d times, want 0", allocs)
			}
			after := k.Dev.RelCounts()
			if retried := after.RetriedReads - before.RetriedReads; (retried > 100) != tc.wantRetries {
				t.Errorf("%d of %d reads retried, want most of them: %v", retried, after.Reads-before.Reads, tc.wantRetries)
			}
		})
	}
}

// TestUnmappedReadZeroAllocs: a read of a trimmed or never-written LPN is an
// expected outcome the runner drops, so it returns the bare sentinel and
// allocates nothing.
func TestUnmappedReadZeroAllocs(t *testing.T) {
	k := relTestKernel(t, "pageFTL", DefaultRelPolicy())
	now := writeLPNs(t, k, 4)
	if _, err := k.Trim(LPN(2), now); err != nil {
		t.Fatal(err)
	}
	for _, lpn := range []LPN{2, 100} {
		if _, err := k.Read(lpn, now); err != ErrUnmapped {
			t.Errorf("read of unmapped LPN %d: err = %v, want ErrUnmapped itself", lpn, err)
		}
	}
	allocs := alloctest.Count(200, func() {
		if _, err := k.Read(LPN(2), now); !errors.Is(err, ErrUnmapped) {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("200 unmapped reads allocate %d times, want 0", allocs)
	}
}
