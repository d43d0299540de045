package flexftl

import (
	"fmt"
	"strings"
	"testing"

	"flexftl/internal/ftl"
	"flexftl/internal/nand"
	"flexftl/internal/rng"
	"flexftl/internal/sim"
)

// auditBlocks verifies the block-accounting invariant with the kernel's exact
// census: every block of every chip has exactly one holder. Leaked blocks
// are the classic FTL failure mode; this audit runs after every heavy
// scenario.
func auditBlocks(t *testing.T, f *ftl.Kernel) {
	t.Helper()
	if err := f.Snapshot().CheckBlocks(f.Pools, f.Dev); err != nil {
		t.Fatal(err)
	}
}

// auditMapping verifies the mapping-table invariant: per-block valid counts
// sum to the mapped-page count, and every mapped LPN's page holds that LPN in
// its spare area.
func auditMapping(t *testing.T, f *ftl.Kernel) {
	t.Helper()
	g := f.Dev.Geometry()
	var total int64
	for flat := 0; flat < g.TotalBlocks(); flat++ {
		total += int64(f.Map.ValidCount(f.Map.BlockOfFlat(flat)))
	}
	if total != f.Map.Mapped() {
		t.Fatalf("valid counts sum %d != mapped %d", total, f.Map.Mapped())
	}
	for lpn := ftl.LPN(0); int64(lpn) < f.LogicalPages(); lpn++ {
		if ppn, ok := f.Map.Lookup(lpn); ok {
			back, ok2 := f.Map.LPNAt(ppn)
			if !ok2 || back != lpn {
				t.Fatalf("LPN %d -> PPN %d -> LPN %v inconsistent", lpn, ppn, back)
			}
		}
	}
}

// TestInvariantsUnderHeavyWrites: a GC-saturated run leaves the block pools
// and mapping table fully consistent.
func TestInvariantsUnderHeavyWrites(t *testing.T) {
	f := newFlex(t, nand.TestGeometry())
	src := rng.New(71)
	logical := f.LogicalPages()
	z := rng.NewZipf(src, int(logical), 0.95)
	now := sim.Time(0)
	var err error
	for i := int64(0); i < 4*logical; i++ {
		now, err = f.Write(ftl.LPN(z.Next()), now, src.Float64())
		if err != nil {
			t.Fatal(err)
		}
		if i%777 == 776 {
			f.Idle(now, now+200*sim.Millisecond)
			now += 200 * sim.Millisecond
		}
	}
	auditBlocks(t, f)
	auditMapping(t, f)
}

// TestInvariantsAfterRecovery: a power cut plus recovery must not corrupt
// the accounting either.
func TestInvariantsAfterRecovery(t *testing.T) {
	f := newFlex(t, nand.TestGeometry())
	now := primeToMSBPhase(t, f)
	f.Dev.InjectPowerLoss(nand.BlockAddr{Chip: 0, Block: stream0(f, 0).ActiveSlow()})
	rep, err := f.Recover(now)
	if err != nil {
		t.Fatal(err)
	}
	auditBlocks(t, f)
	auditMapping(t, f)
	// Keep writing after recovery and re-audit.
	src := rng.New(73)
	logical := f.LogicalPages()
	now = rep.End
	for i := int64(0); i < logical; i++ {
		now, err = f.Write(ftl.LPN(src.Int63n(logical)), now, src.Float64())
		if err != nil {
			t.Fatal(err)
		}
	}
	auditBlocks(t, f)
	auditMapping(t, f)
}

// TestInvariantsWithTrims: heavy trims interleaved with writes.
func TestInvariantsWithTrims(t *testing.T) {
	f := newFlex(t, nand.TestGeometry())
	src := rng.New(79)
	logical := f.LogicalPages()
	now := sim.Time(0)
	var err error
	for i := int64(0); i < 3*logical; i++ {
		lpn := ftl.LPN(src.Int63n(logical))
		if src.Bool(0.2) {
			now, err = f.Trim(lpn, now)
		} else {
			now, err = f.Write(lpn, now, src.Float64())
		}
		if err != nil {
			t.Fatal(err)
		}
		if i%1111 == 1110 {
			f.Idle(now, now+150*sim.Millisecond)
			now += 150 * sim.Millisecond
		}
	}
	auditBlocks(t, f)
	auditMapping(t, f)
}

// TestBlockCensusNamesPlantedFaults: the census is not vacuous. It passes
// after every step of a churn whose one-copy idle windows leave background-GC
// victims in flight; a block planted on a second list and a block popped and
// dropped are each reported by chip, block and holders.
func TestBlockCensusNamesPlantedFaults(t *testing.T) {
	c := newChurn(t, 43)
	f, bgSeen := c.f, false
	for i := 0; i < 4000; i++ {
		c.step(t, i)
		auditBlocks(t, f)
		for _, ch := range f.Snapshot().Chips {
			bgSeen = bgSeen || ch.BGVictim != -1
		}
	}
	if !bgSeen {
		t.Fatal("churn never left a background-GC victim in flight")
	}
	full := f.Pools[0].FullBlocks()
	if len(full) == 0 {
		t.Fatal("churn left chip 0 without a full block")
	}
	doubled := full[0]
	f.Pools[0].PushFree(doubled)
	last := f.Dev.Geometry().Chips() - 1
	leaked, ok := f.Pools[last].PopFree()
	if !ok {
		t.Fatalf("chip %d has no free block to leak", last)
	}
	err := f.Snapshot().CheckBlocks(f.Pools, f.Dev)
	if err == nil {
		t.Fatal("census passed with a doubly held and a leaked block")
	}
	for _, want := range []string{
		fmt.Sprintf("chip 0 block %d held by free list and full list", doubled),
		fmt.Sprintf("chip %d block %d held by nothing", last, leaked),
	} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("census error %q does not name %q", err, want)
		}
	}
}
