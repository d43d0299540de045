package flexftl

// Regression tests for the recovery-path fixes that ride with the crash
// campaign: rollback of an interrupted GC relocation, fill-bounded scanning
// of retired backup blocks, and the flash-scan rebuild of the parity
// location table.

import (
	"testing"

	"flexftl/internal/ftl"
	"flexftl/internal/nand"
	"flexftl/internal/rng"
	"flexftl/internal/sim"
)

// churnState drives a seeded steady-state workload: a prefill to most of the
// logical space, then hot overwrites with idle windows small enough that
// background GC regularly stops mid-block, leaving MSB windows open.
type churnState struct {
	f   *ftl.Kernel
	src *rng.Source
	now sim.Time
}

func newChurn(t *testing.T, seed uint64) *churnState {
	t.Helper()
	c := &churnState{f: newFlex(t, nand.TestGeometry()), src: rng.New(seed)}
	logical := c.f.LogicalPages()
	for p := int64(0); p < logical*3/4; p++ {
		done, err := c.f.Write(ftl.LPN(p), c.now, c.src.Float64())
		if err != nil {
			t.Fatal(err)
		}
		c.now = done
	}
	return c
}

// step runs one churn operation: mostly hot overwrites, with a one-copy idle
// window every few ops so background GC advances in small increments.
func (c *churnState) step(t *testing.T, i int) {
	t.Helper()
	if i%4 == 3 {
		span := ftl.GCPageCopyCost(c.f.Dev.Timing(), c.f.Dev.Geometry().BitsPerCell())
		c.f.Idle(c.now, c.now+span)
		c.now += span
		return
	}
	lpn := ftl.LPN(c.src.Int63n(c.f.LogicalPages() / 8))
	done, err := c.f.Write(lpn, c.now, c.src.Float64())
	if err != nil {
		t.Fatal(err)
	}
	c.now = done
}

// TestRecoveryRollsBackInterruptedGCRelocation is the satellite-4 scenario:
// a sudden power-off lands while background GC has an MSB relocation in
// flight. That page's data was acknowledged long ago, so recovery must not
// drop it — the mapping rolls back to the superseded on-chip copy, which the
// device's erase barrier guarantees still exists.
func TestRecoveryRollsBackInterruptedGCRelocation(t *testing.T) {
	c := newChurn(t, 11)
	f, g := c.f, c.f.Dev.Geometry()
	for i := 0; i < 40000; i++ {
		c.step(t, i)
		for chip := 0; chip < g.Chips(); chip++ {
			msbAddr, open := f.Dev.OpenMSBWindow(chip)
			if !open {
				continue
			}
			m := f.Snapshot().Chips[chip].LastMSB
			if m == nil || !m.FromGC || m.Prev == nand.InvalidPPN {
				continue
			}
			lpn, prev := m.LPN, m.Prev
			if mapped, live := f.Map.LPNAt(g.PPNOf(msbAddr)); !live || mapped != lpn {
				continue
			}
			// Found it: an unacknowledged GC relocation in the destructive
			// window. Cut power.
			if !f.Dev.InjectPowerLoss(msbAddr.BlockAddr) {
				t.Fatal("open window refused injection")
			}
			rep, err := f.Recover(c.now)
			if err != nil {
				t.Fatalf("recovery: %v", err)
			}
			rolledBack := false
			for _, l := range rep.RolledBack {
				if l == lpn {
					rolledBack = true
				}
			}
			if !rolledBack {
				t.Fatalf("LPN %d (interrupted GC relocation) not rolled back; report %+v", lpn, rep)
			}
			for _, l := range rep.Dropped {
				if l == lpn {
					t.Fatalf("LPN %d dropped: acknowledged data lost", lpn)
				}
			}
			// The mapping points at the superseded copy and the data is
			// intact under its own token.
			ppn, mapped := f.Map.Lookup(lpn)
			if !mapped {
				t.Fatalf("LPN %d unmapped after rollback", lpn)
			}
			if ppn != prev {
				// The slow-block scan may re-home a parity-recovered page;
				// anything else must be the superseded copy.
				t.Logf("mapping moved past the superseded copy (re-home): ppn %d, prev %d", ppn, prev)
			}
			if _, err := f.Dev.ReadInto(g.AddrOfPPN(ppn), &f.Buf, rep.End); err != nil {
				t.Fatalf("rolled-back copy unreadable: %v", err)
			}
			if tok, ok := ftl.TokenLPN(f.Buf.Data); !ok || tok != lpn {
				t.Fatalf("rolled-back copy carries token %v, want %v", tok, lpn)
			}
			if _, err := f.Read(lpn, rep.End); err != nil {
				t.Fatalf("host read of rolled-back LPN: %v", err)
			}
			return
		}
	}
	t.Fatal("no GC relocation was ever caught in the destructive window; churn does not exercise background GC")
}

// TestRebuildParityRefsScansOnlyFills pins the satellite-3 fix: retired
// backup blocks record how far they were written, and the flash scan reads
// exactly that many pages — scanning at full word-line width would charge
// phantom reads of erased pages to the reboot budget. Partial fills come
// from the crash-time seal itself, so the test runs two rebuilds: the first
// seals a partially written backup block, the second proves the scan honors
// the recorded fill.
func TestRebuildParityRefsScansOnlyFills(t *testing.T) {
	c := newChurn(t, 23)
	f, g := c.f, c.f.Dev.Geometry()
	wl := g.WordLinesPerBlock
	// Churn until some chip's current backup block is partially written.
	partial := false
	for i := 0; i < 40000 && !partial; i++ {
		c.step(t, i)
		for chip := 0; chip < g.Chips(); chip++ {
			blk := f.Snapshot().Chips[chip].BackupCur
			if blk == -1 {
				continue
			}
			pos := f.Dev.BlockProgrammedPages(nand.BlockAddr{Chip: chip, Block: blk})
			if pos > 0 && pos < wl {
				partial = true
			}
		}
	}
	if !partial {
		t.Fatal("churn never left a backup block partially written")
	}
	f.ForgetParityRefs()
	first, err := f.RebuildParityRefs(c.now)
	if err != nil {
		t.Fatal(err)
	}
	if first.Sealed == 0 {
		t.Fatal("first rebuild sealed nothing despite a partially written backup block")
	}
	for chip := 0; chip < g.Chips(); chip++ {
		if f.Snapshot().Chips[chip].BackupCur != -1 {
			t.Errorf("chip %d: current backup block not sealed by the rebuild", chip)
		}
	}

	// Second scan: every backup block is now retired with a recorded fill;
	// the read count must equal the sum of fills, strictly below full width
	// somewhere (the sealed partial block).
	wantReads, fullWidth := 0, 0
	for chip := 0; chip < g.Chips(); chip++ {
		for _, r := range f.Snapshot().Chips[chip].RetiredBackups {
			wantReads += r.Fill
			fullWidth += wl
		}
	}
	if wantReads >= fullWidth {
		t.Fatalf("no partial fill survived sealing (fills %d, full width %d)", wantReads, fullWidth)
	}
	f.ForgetParityRefs()
	second, err := f.RebuildParityRefs(c.now)
	if err != nil {
		t.Fatal(err)
	}
	if second.PagesRead != wantReads {
		t.Fatalf("scan read %d pages, fills sum to %d (full-width scanning?)", second.PagesRead, wantReads)
	}
	// Every block still awaiting its slow phase has its parity ref back.
	for chip := 0; chip < g.Chips(); chip++ {
		for _, blk := range stream0(f, chip).SlowQueue {
			if _, _, ok := f.ParityRef(chip, blk); !ok {
				t.Errorf("chip %d: slow-queue block %d has no parity ref after rebuild", chip, blk)
			}
		}
	}
}

// TestRebuildParityRefsUnleaksRetiredBlocks pins the leak the rebuild fixes:
// after losing the runtime refs, slow-phase completions can no longer
// decrement backup live counts, so retired backup blocks would sit
// unrecyclable forever. The rebuild recomputes liveness from flash and
// recycles the stale ones, and block accounting balances afterwards.
func TestRebuildParityRefsUnleaksRetiredBlocks(t *testing.T) {
	c := newChurn(t, 37)
	f, g := c.f, c.f.Dev.Geometry()
	// Lose the refs mid-run, then keep churning: slow completions now leak
	// retired backup blocks.
	f.ForgetParityRefs()
	retiredPeak := 0
	for i := 0; i < 30000; i++ {
		c.step(t, i)
		total := 0
		for chip := 0; chip < g.Chips(); chip++ {
			total += len(f.Snapshot().Chips[chip].RetiredBackups)
		}
		if total > retiredPeak {
			retiredPeak = total
		}
		if retiredPeak >= 2*g.Chips() {
			break // leaked plenty; no need to churn further
		}
	}
	if retiredPeak < g.Chips() {
		t.Skipf("churn only accumulated %d retired backup blocks; leak not provoked", retiredPeak)
	}
	rep, err := f.RebuildParityRefs(c.now)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Recycled == 0 {
		t.Error("rebuild recycled nothing despite leaked retired backup blocks")
	}
	if err := f.Snapshot().CheckBlocks(f.Pools, f.Dev); err != nil {
		t.Error(err)
	}
	// The FTL keeps running after the rebuild.
	for i := 0; i < 500; i++ {
		c.step(t, i)
	}
}
