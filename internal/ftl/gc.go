package ftl

import (
	"errors"
	"fmt"

	"flexftl/internal/core"
	"flexftl/internal/nand"
	"flexftl/internal/obs"
	"flexftl/internal/rel"
	"flexftl/internal/sim"
)

// PickNeediestVictim chooses, across all chips, the chip with the fewest
// free blocks that still has a GC candidate, and that chip's greedy victim
// (most invalid pages).
func PickNeediestVictim(b *Base) (chip, victim int, ok bool) {
	bestChip, bestFree := -1, int(^uint(0)>>1)
	bestVictim := -1
	for c, pool := range b.Pools {
		v, has := pool.PickVictim()
		if !has {
			continue
		}
		if pool.FreeCount() < bestFree {
			bestChip, bestFree, bestVictim = c, pool.FreeCount(), v
		}
	}
	if bestChip == -1 {
		return 0, 0, false
	}
	return bestChip, bestVictim, true
}

// GCPageCopyCost is the virtual-time cost of relocating one valid page
// during GC on a device of the given bits per cell: a read, two bus
// transfers (out and back in), and pessimistically a program of the finest
// level (MSB on MLC). EstimateGCCost and RunBackgroundGC both budget from
// this single definition so the two cannot drift.
func GCPageCopyCost(t nand.Timing, levels int) sim.Time {
	return t.Read + 2*t.BusXfer + t.Prog(core.PageType(levels-1))
}

// EstimateGCCost upper-bounds the virtual-time cost of collecting a victim
// with the given valid-page count: each copy is a read plus (pessimistically)
// a finest-level program, plus the final erase. Foreground paths use it for
// accounting; background GC is incremental and does not need it.
func EstimateGCCost(t nand.Timing, levels, validPages int) sim.Time {
	return sim.Time(validPages)*GCPageCopyCost(t, levels) + t.Erase
}

// bgVictim tracks a background-GC victim across idle windows, so collection
// can proceed incrementally: real idle gaps are far shorter than a full
// victim collection, and an all-or-nothing policy would starve background GC
// entirely (pushing every reclaim into the foreground).
type bgVictim struct {
	chip    int
	blk     int
	nextIdx int // resume point for the valid-page scan (pages only ever go invalid)
	active  bool
}

// RunBackgroundGC incrementally collects victims during [now, until):
// it resumes any in-progress victim, relocating one valid page at a time
// through alloc, erasing and freeing the block when it empties, and starts a
// new victim (chosen by PickNeediestVictim) while shouldRun() holds. It
// returns the virtual time reached.
func (b *Base) RunBackgroundGC(now, until sim.Time, shouldRun func() bool, alloc AllocFunc) sim.Time {
	prevCause := b.Dev.SetCause(obs.CauseGC)
	defer b.Dev.SetCause(prevCause)
	g := b.Dev.Geometry()
	perPage := GCPageCopyCost(b.Dev.Timing(), g.BitsPerCell())
	perBlock := g.PagesPerBlock()
	if b.Obs != nil && b.bg.active {
		b.Obs.Instant(obs.KindBGCResume, int32(b.bg.chip), now, int64(b.bg.blk), int64(b.bg.nextIdx))
	}
	for now < until {
		if !b.bg.active {
			if !shouldRun() {
				return now
			}
			chip, victim, ok := PickNeediestVictim(b)
			if !ok {
				return now
			}
			b.Pools[chip].TakeFull(victim)
			b.bg = bgVictim{chip: chip, blk: victim, active: true}
			b.St.BackgroundGCs++
			b.Obs.Instant(obs.KindBGCStart, int32(chip), now, int64(victim), int64(b.Pools[chip].FreeCount()))
		}
		addr := nand.BlockAddr{Chip: b.bg.chip, Block: b.bg.blk}
		base := nand.PPN(int64(b.Map.FlatBlock(addr)) * int64(perBlock))
		// Find the next still-valid page from the resume cursor.
		lpn := LPN(-1)
		var ppn nand.PPN
		for ; b.bg.nextIdx < perBlock; b.bg.nextIdx++ {
			if l, ok := b.Map.LPNAt(base + nand.PPN(b.bg.nextIdx)); ok {
				lpn, ppn = l, base+nand.PPN(b.bg.nextIdx)
				break
			}
		}
		if lpn == -1 {
			// Victim fully relocated (or invalidated): erase and free. The
			// erase is allowed to overshoot the window slightly; it cannot
			// be split. A worn-out victim retires instead of freeing.
			done, err := b.Dev.Erase(addr, now)
			if err != nil {
				if errors.Is(err, nand.ErrBadBlock) {
					b.St.RetiredBlocks++
				}
				b.bg = bgVictim{}
				return now
			}
			b.St.Erases++
			if !b.maybeRetire(b.bg.chip, b.bg.blk) {
				b.Pools[b.bg.chip].PushFree(b.bg.blk)
			}
			b.Obs.Instant(obs.KindBGCFinish, int32(b.bg.chip), now, int64(b.bg.blk), int64(b.Pools[b.bg.chip].FreeCount()))
			b.bg = bgVictim{}
			now = done
			continue
		}
		if now+perPage > until {
			return now
		}
		tRead, err := b.Dev.ReadPPN(ppn, &b.Buf, now)
		if err != nil {
			if errors.Is(err, rel.ErrUncorrectable) {
				// ECC loss on a victim page: rebuild or relocate a pinned
				// placeholder (see collectVictim) and keep collecting.
				now = b.relocateLost(lpn, b.lay.Addr(ppn), tRead)
			} else {
				// Unreadable victim page (e.g. injected corruption): abandon
				// the victim but return it to the candidate list so its valid
				// pages are not leaked.
				b.Pools[b.bg.chip].PushFull(b.bg.blk)
				b.bg = bgVictim{}
				return now
			}
		} else {
			now = tRead
		}
		now, err = alloc(b.bg.chip, lpn, b.Buf.Data, b.Buf.Spare, now)
		if err != nil {
			// A relocation failure mid-victim would leave FTL block state
			// inconsistent; that is an allocator invariant violation, not a
			// recoverable condition.
			panic(fmt.Sprintf("ftl: background GC relocation of LPN %d failed: %v", lpn, err))
		}
		b.St.GCCopies++
		b.markRelocatedLoss(lpn)
		b.bg.nextIdx++
	}
	return now
}
