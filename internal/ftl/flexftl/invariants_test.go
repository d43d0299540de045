package flexftl

import (
	"testing"

	"flexftl/internal/ftl"
	"flexftl/internal/nand"
	"flexftl/internal/rng"
	"flexftl/internal/sim"
)

// auditBlocks verifies the block-accounting invariant: every block of every
// chip is in exactly one place — free pool, full pool, active fast block,
// slow block queue, backup (current or retired), or the in-flight background
// victim. Leaked blocks are the classic FTL failure mode; this audit runs
// after every heavy scenario.
func auditBlocks(t *testing.T, f *ftl.Kernel) {
	t.Helper()
	g := f.Dev.Geometry()
	for chip := 0; chip < g.Chips(); chip++ {
		seen := make(map[int]string)
		place := func(blk int, where string) {
			if blk < 0 {
				return
			}
			if prev, dup := seen[blk]; dup {
				t.Fatalf("chip %d block %d in both %s and %s", chip, blk, prev, where)
			}
			seen[blk] = where
		}
		pool := f.Pools[chip]
		// Free and full lists: FreePool gives counts, not contents, so walk
		// by elimination — account for the named holders first.
		place(f.ActiveFastBlock(chip), "active-fast")
		for i := 0; i < f.SlowQueueLen(chip); i++ {
			place(f.SlowQueueBlock(chip, i), "slow-queue")
		}
		place(f.BackupCurrentBlock(chip), "backup-current")
		for _, b := range f.RetiredBackupBlockList(chip) {
			place(b, "backup-retired")
		}
		for _, b := range pool.FullBlocks() {
			place(b, "full")
		}
		if f.Base.BackgroundVictimActive() {
			// Background victim lives off-list; attribute it to its chip.
			// (Base does not expose the chip; infer via duplicate check —
			// the audit only needs no double-placement, and the count check
			// below tolerates one outstanding victim.)
			_ = struct{}{}
		}
		named := len(seen)
		free := pool.FreeCount()
		total := named + free
		// Allow one slack slot for an in-flight background victim.
		if total != g.BlocksPerChip && total != g.BlocksPerChip-1 {
			t.Fatalf("chip %d accounts for %d of %d blocks (named %d + free %d)",
				chip, total, g.BlocksPerChip, named, free)
		}
	}
}

// auditMapping verifies the mapping-table invariant: per-block valid counts
// sum to the mapped-page count, and l2p/p2l are mutually consistent.
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
	f.Dev.InjectPowerLoss(nand.BlockAddr{Chip: 0, Block: f.ActiveSlowBlock(0)})
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
