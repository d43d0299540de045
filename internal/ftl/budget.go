package ftl

// chipBudget is the per-chip free-block budget: every free-pool level an
// order policy works to, computed once per FTL from MinFreeBlocksPerChip
// (m), the placement's stream count (s, each stream holds its own active
// block against the one shared pool) and whether a backup writer exists
// (e = 1, else 0). DESIGN.md §7 item 4 lists who reads each level and the
// asymmetries the levels keep.
type chipBudget struct {
	Reclaim   int // m+e+s−1: the FPS orders' foreground reclaim target
	Spare     int // m+s: free blocks beyond it count as fast capacity
	Thin      int // m+s: phased orders collect below it when no slow block exists
	Emergency int // 1+s: phased orders collect, and open no fast block, below it
	Refill    int // m: the FPS-pool order refills empty slots only above it
	Quiet     int // foreground GC collects nothing at or above it
}

// newChipBudget computes the budget; phased marks the two-phase (or
// n-phase) order, whose collector is quiet from Thin up, not from Reclaim.
func newChipBudget(cfg Config, streams int, backup, phased bool) chipBudget {
	m, e := cfg.MinFreeBlocksPerChip, 0
	if backup {
		e = 1
	}
	b := chipBudget{Reclaim: m + e + streams - 1, Spare: m + streams, Thin: m + streams, Emergency: 1 + streams, Refill: m}
	b.Quiet = b.Reclaim
	if phased {
		b.Quiet = b.Thin
	}
	return b
}

// spareBlocks is the chip's free blocks beyond the budget's Spare level.
func (b *Base) spareBlocks(chip int) int {
	return max(b.Pools[chip].FreeCount()-b.Budget.Spare, 0)
}
