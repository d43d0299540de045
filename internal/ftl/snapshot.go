package ftl

import (
	"fmt"
	"strings"

	"flexftl/internal/nand"
)

// Snapshot is a value-only copy of a kernel's policy state: the adaptive
// quota and, per chip, every block the policies hold off the pool lists —
// the block pool manager's life cycle (free → active fast → slow queue →
// active slow → full) plus the backup blocks and the background-GC victim.
// Nothing in it aliases the kernel, so callers may keep or mutate it. It is
// for tests, tooling and invariant checks; no run path takes one.
type Snapshot struct {
	// Quota and InitialQuota are the adaptive allocator's LSB budget q and
	// its starting value (0 under the fixed allocator).
	Quota, InitialQuota int64
	Chips               []ChipSnapshot
}

// ChipSnapshot is one chip's policy state. Block fields are -1 when empty.
type ChipSnapshot struct {
	// Streams is the two-phase block life cycle per placement stream (nil
	// under the FPS orders).
	Streams []StreamSnapshot
	// Open holds the FPS orders' active blocks, one per placement stream
	// (fpsSingle) or occupied pool slot (fpsPool).
	Open []int
	// LSBReadySlots counts the FPS-pool order's active slots whose next
	// program is an LSB page; HasMSBNext reports one waiting on an MSB page.
	LSBReadySlots int
	HasMSBNext    bool
	// LastMSB is the chip's most recent MSB program under two-phase ordering
	// (nil under other orders or before the first one). The record is per
	// chip, not per stream: the device keeps at most one destructive window
	// per chip, so only the newest MSB program is ever at risk.
	LastMSB *MSBRecord
	// BackupCur and RetiredBackups are the per-block parity strategy's open
	// backup block and its filled blocks awaiting recycling.
	BackupCur      int
	RetiredBackups []RetiredBackup
	// Ring is the pair-parity strategy's current and previous backup blocks.
	Ring [2]int
	// BGVictim is the in-flight background-GC victim when it is on this chip.
	BGVictim int
}

// StreamSnapshot is one placement stream's two-phase state.
type StreamSnapshot struct {
	ActiveFast   int   // active fast block
	SlowQueue    []int // slow block queue in order; index 0 is the active slow block
	SlowProgress int   // MSB pages programmed in the active slow block
}

// ActiveSlow returns the active slow block (the slow queue's head), or -1.
func (s StreamSnapshot) ActiveSlow() int {
	if len(s.SlowQueue) == 0 {
		return -1
	}
	return s.SlowQueue[0]
}

// MSBRecord describes one MSB program: its LPN, the physical page it
// superseded (InvalidPPN if none), whether it was a GC relocation, and the
// placement stream that issued it.
type MSBRecord struct {
	LPN    LPN
	Prev   nand.PPN
	FromGC bool
	Stream int
}

// Snapshot copies the kernel's policy state.
func (k *Kernel) Snapshot() Snapshot {
	s := Snapshot{Chips: make([]ChipSnapshot, k.Chips())}
	if a, ok := k.alloc.(*adaptiveAlloc); ok {
		s.Quota, s.InitialQuota = a.q, a.q0
	}
	for c := range s.Chips {
		ch := &s.Chips[c]
		ch.BackupCur, ch.Ring, ch.BGVictim = -1, [2]int{-1, -1}, -1
		switch o := k.ord.(type) {
		case *fpsSingle:
			ch.Open = cursorBlocks(o.active[c])
		case *fpsPool:
			ch.Open = cursorBlocks(o.active[c])
			ch.LSBReadySlots, ch.HasMSBNext = o.lsbReadyCount(c), o.chipHasMSBNext(c)
		case *twoPhase:
			tc := &o.chips[c]
			// The record starts zeroed; a chip has programmed an MSB page
			// once it holds one or some stream has entered its slow phase.
			started := tc.lastMSBPrev != nand.InvalidPPN || tc.lastMSBLPN != 0
			for i := range tc.streams {
				st := &tc.streams[i]
				ch.Streams = append(ch.Streams, StreamSnapshot{st.afb, queueSlice(&st.sbq), st.asbPos})
				started = started || st.asbPos != 0 || st.sbq.Len() != 0
			}
			if started {
				ch.LastMSB = &MSBRecord{tc.lastMSBLPN, tc.lastMSBPrev, tc.lastMSBGC, tc.lastMSBStream}
			}
		}
		switch b := k.bk.(type) {
		case *pairParity:
			ch.Ring = [2]int{b.ring[c].cur, b.ring[c].prev}
		case *blockParity:
			ch.BackupCur = b.backup[c].cur
			ch.RetiredBackups = append([]RetiredBackup{}, b.backup[c].retired...)
		}
		if k.bg.active && k.bg.chip == c {
			ch.BGVictim = k.bg.blk
		}
	}
	return s
}

// CheckBlocks is the exact block census: every block of every chip must have
// exactly one holder among the pools' free and full lists, the holders the
// snapshot records, and device retirement. A block held twice or not at all
// is reported with its chip and holders. pools and dev are the snapshotted
// kernel's (Kernel.Pools, Kernel.Dev), read at call time.
func (s Snapshot) CheckBlocks(pools []*FreePool, dev *nand.Device) error {
	var problems []string
	for c, ch := range s.Chips {
		holders := make([][]string, dev.Geometry().BlocksPerChip)
		hold := func(where string, blks ...int) {
			for _, b := range blks {
				if b >= 0 {
					holders[b] = append(holders[b], where)
				}
			}
		}
		hold("free list", queueSlice(&pools[c].free)...)
		hold("full list", pools[c].FullBlocks()...)
		for _, st := range ch.Streams {
			hold("active fast block", st.ActiveFast)
			hold("slow queue", st.SlowQueue...)
		}
		hold("active block", ch.Open...)
		hold("open backup block", ch.BackupCur)
		for _, r := range ch.RetiredBackups {
			hold("retired backup block", r.Block)
		}
		hold("backup ring", ch.Ring[:]...)
		hold("background-GC victim", ch.BGVictim)
		for b, h := range holders {
			if dev.IsRetired(nand.BlockAddr{Chip: c, Block: b}) {
				h = append(h, "device retirement")
			}
			if len(h) == 0 {
				problems = append(problems, fmt.Sprintf("chip %d block %d held by nothing", c, b))
			} else if len(h) > 1 {
				problems = append(problems, fmt.Sprintf("chip %d block %d held by %s", c, b, strings.Join(h, " and ")))
			}
		}
	}
	if problems != nil {
		return fmt.Errorf("ftl: block census: %s", strings.Join(problems, "; "))
	}
	return nil
}

// cursorBlocks lists the blocks of the active cursors (skipping empty slots).
func cursorBlocks(curs []cursor) []int {
	var out []int
	for _, cur := range curs {
		if cur.blk != -1 {
			out = append(out, cur.blk)
		}
	}
	return out
}

// queueSlice copies a queue front to back.
func queueSlice(q *IntQueue) []int {
	out := make([]int, q.Len())
	for i := range out {
		out[i] = q.At(i)
	}
	return out
}
