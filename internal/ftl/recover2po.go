package ftl

// Reboot-time procedures for two-phase-ordered kernels with per-block parity
// (Section 3.3, Figure 7(b)): sudden-power-off recovery of corrupted LSB
// pages, and a full mapping-table rebuild from flash. Both require the
// TwoPhaseOrderPolicy + BlockParityBackup configuration (flexFTL); calling
// them on any other kernel is an error.

import (
	"errors"
	"fmt"

	"flexftl/internal/core"
	"flexftl/internal/nand"
	"flexftl/internal/parity"
	"flexftl/internal/sim"
)

// RecoveryReport summarizes a reboot-time error recovery pass (Section 3.3,
// Figure 7(b)).
type RecoveryReport struct {
	// PagesRead counts the LSB page reads of the scan (active slow blocks
	// and active fast blocks) plus parity page reads.
	PagesRead int
	// Recovered lists the LPNs whose LSB data was reconstructed from the
	// per-block parity page.
	Recovered []LPN
	// RolledBack lists LPNs of interrupted MSB programs whose superseded
	// copy still existed on flash: the mapping was re-pointed at it. This is
	// required when the interrupted program was a GC relocation — that data
	// was acknowledged long ago and must survive — and strictly better than
	// dropping for host writes.
	RolledBack []LPN
	// Dropped lists the LPNs of interrupted MSB programs with no surviving
	// prior copy: those writes were never acknowledged to the host, so their
	// data is (correctly) lost.
	Dropped []LPN
	// Start and End delimit the recovery pass in virtual time. Chips scan
	// in parallel; End-Start is the reboot-time overhead the paper bounds
	// at ~82 ms of page reads.
	Start, End sim.Time
}

// Duration returns the recovery pass's elapsed virtual time.
func (r RecoveryReport) Duration() sim.Time { return r.End - r.Start }

// RebuildReport summarizes a full mapping-table reconstruction.
type RebuildReport struct {
	PagesScanned int
	Mapped       int64
	Mismatches   int64 // entries that disagreed with the pre-rebuild table
	Start, End   sim.Time
}

// Duration returns the scan's elapsed virtual time.
func (r RebuildReport) Duration() sim.Time { return r.End - r.Start }

// recoveryPolicies returns the two-phase order policy and block-parity backup
// the reboot procedures operate on.
func (k *Kernel) recoveryPolicies() (*twoPhase, *blockParity, error) {
	tp, okOrder := k.ord.(*twoPhase)
	bp, okBackup := k.bk.(*blockParity)
	if !okOrder || !okBackup {
		return nil, nil, fmt.Errorf("%s: recovery requires two-phase ordering with per-block parity", k.name)
	}
	return tp, bp, nil
}

// Recover runs the reboot-time procedure after a sudden power-off: for every
// active slow block it re-reads all LSB pages while recomputing the
// accumulated parity; an ECC-uncorrectable page is reconstructed from the
// saved per-block parity page and re-written; the partially accumulated
// parity of every active fast block is recomputed as well.
func (k *Kernel) Recover(now sim.Time) (RecoveryReport, error) {
	rep := RecoveryReport{Start: now}
	tp, bp, err := k.recoveryPolicies()
	if err != nil {
		return rep, err
	}
	end := now
	for chip := range tp.chips {
		chipEnd, err := k.recoverChip(tp, bp, chip, now, &rep)
		if err != nil {
			return rep, err
		}
		if chipEnd > end {
			end = chipEnd
		}
	}
	rep.End = end
	return rep, nil
}

func (k *Kernel) recoverChip(tp *twoPhase, bp *blockParity, chip int, now sim.Time, rep *RecoveryReport) (sim.Time, error) {
	ch := &tp.chips[chip]
	g := k.Dev.Geometry()
	wl := g.WordLinesPerBlock

	// 1. Handle the interrupted MSB write, if any: its program never
	// completed, so its new copy is gone. If the copy it superseded still
	// exists on flash the mapping rolls back to it — mandatory when the
	// program was a GC relocation (that data was acknowledged long ago) —
	// otherwise the LPN is dropped: the host was never acknowledged. The
	// device holds at most one destructive window per chip, so only the
	// stream of the chip's most recent MSB program can be interrupted.
	if st := &ch.streams[ch.lastMSBStream]; st.sbq.Len() > 0 && st.asbPos > 0 {
		blk := st.sbq.Front()
		msbAddr := nand.PageAddr{
			BlockAddr: nand.BlockAddr{Chip: chip, Block: blk},
			Page:      core.Page{WL: st.asbPos - 1, Type: core.MSB},
		}
		if k.Dev.IsCorrupted(msbAddr) {
			if lpn, ok := k.Map.LPNAt(k.lay.PPNOf(msbAddr)); ok {
				now = k.dropOrRollBack(ch, st, chip, lpn, now, rep)
			}
		}
	}

	// 2. Scan every stream's active slow block: read every LSB page;
	// reconstruct at most one lost page per block.
	for si := range ch.streams {
		st := &ch.streams[si]
		if st.sbq.Len() == 0 {
			continue
		}
		blk := st.sbq.Front()
		var survivors [][]byte
		lostWL := -1
		for p := 0; p < wl; p++ {
			addr := nand.PageAddr{
				BlockAddr: nand.BlockAddr{Chip: chip, Block: blk},
				Page:      core.Page{WL: p, Type: core.LSB},
			}
			t, err := k.Dev.ReadInto(addr, &k.Buf, now)
			rep.PagesRead++
			now = t
			switch {
			case err == nil:
				// Retained past the next read, so copied out of the shared buffer.
				survivors = append(survivors, append([]byte(nil), k.Buf.Data...))
			case errors.Is(err, nand.ErrUncorrectable):
				if lostWL != -1 {
					return now, fmt.Errorf("%s: chip %d block %d lost two LSB pages (%d and %d); parity covers one", k.name, chip, blk, lostWL, p)
				}
				lostWL = p
			default:
				return now, fmt.Errorf("%s: recovery read %v: %w", k.name, addr, err)
			}
		}
		if lostWL != -1 {
			var err error
			now, err = k.reconstructLSB(tp, bp, chip, blk, lostWL, survivors, now, rep)
			if err != nil {
				return now, err
			}
		}
	}

	// 3. Recompute the partial parity accumulation of every stream's active
	// fast block.
	for si := range ch.streams {
		st := &ch.streams[si]
		if st.afb == -1 || st.afbPos == 0 {
			continue
		}
		bp.pbuf[chip][si].Reset()
		for p := 0; p < st.afbPos; p++ {
			addr := nand.PageAddr{
				BlockAddr: nand.BlockAddr{Chip: chip, Block: st.afb},
				Page:      core.Page{WL: p, Type: core.LSB},
			}
			t, err := k.Dev.ReadInto(addr, &k.Buf, now)
			rep.PagesRead++
			now = t
			if err != nil {
				return now, fmt.Errorf("%s: fast-block rescan %v: %w", k.name, addr, err)
			}
			if err := bp.pbuf[chip][si].Add(k.Buf.Data); err != nil {
				return now, err
			}
		}
	}
	return now, nil
}

// dropOrRollBack resolves the mapping of an interrupted MSB program. The
// two-phase order tracks, per chip, the physical page the most recent MSB
// program superseded; if that copy still holds this LPN's data the mapping
// rolls back to it. The superseded copy may even be the corrupted paired LSB
// of the interrupted program itself (an in-block rewrite) — that page is
// parity-recoverable, so the rollback stands and the step-2 scan re-homes
// it. Only when no prior copy survives is the LPN dropped.
func (k *Kernel) dropOrRollBack(ch *twoPhaseChip, st *twoPhaseStream, chip int, lpn LPN, now sim.Time, rep *RecoveryReport) sim.Time {
	if ch.lastMSBLPN == lpn && ch.lastMSBPrev != nand.InvalidPPN {
		prevAddr := k.lay.Addr(ch.lastMSBPrev)
		pairAddr := nand.PageAddr{
			BlockAddr: nand.BlockAddr{Chip: chip, Block: st.sbq.Front()},
			Page:      core.Page{WL: st.asbPos - 1, Type: core.LSB},
		}
		if prevAddr == pairAddr && k.Dev.IsCorrupted(prevAddr) {
			// In-block rewrite: the prior copy is the destroyed pair itself.
			// Parity reconstructs it, so point the mapping back at it now
			// and let the slow-block scan re-home it under this LPN.
			k.Map.Update(lpn, ch.lastMSBPrev)
			rep.RolledBack = append(rep.RolledBack, lpn)
			return now
		}
		t, err := k.Dev.ReadInto(prevAddr, &k.Buf, now)
		rep.PagesRead++
		now = t
		if err == nil {
			// The token guards against the page having been erased and
			// reprogrammed for another LPN (possible only for cross-chip
			// prior copies of host writes; GC relocations stay on-chip,
			// where the device's erase barrier keeps the copy intact).
			if tokLPN, ok := TokenLPN(k.Buf.Data); ok && tokLPN == lpn {
				k.Map.Update(lpn, ch.lastMSBPrev)
				rep.RolledBack = append(rep.RolledBack, lpn)
				return now
			}
		}
	}
	k.Map.Invalidate(lpn)
	rep.Dropped = append(rep.Dropped, lpn)
	return now
}

// reconstructLSB rebuilds the lost LSB page from the saved parity page and
// the surviving LSB pages, then re-writes the data if it was still valid.
func (k *Kernel) reconstructLSB(tp *twoPhase, bp *blockParity, chip, blk, lostWL int, survivors [][]byte, now sim.Time, rep *RecoveryReport) (sim.Time, error) {
	var parityPage []byte
	flat := k.Map.FlatBlock(nand.BlockAddr{Chip: chip, Block: blk})
	if ref := bp.refs[flat]; ref.backupBlk != -1 {
		// Fast path: the in-memory ref locates the parity page directly.
		parityAddr := nand.PageAddr{
			BlockAddr: nand.BlockAddr{Chip: chip, Block: ref.backupBlk},
			Page:      core.Page{WL: ref.page, Type: core.LSB},
		}
		t, err := k.Dev.ReadInto(parityAddr, &k.Buf, now)
		rep.PagesRead++
		now = t
		if err != nil {
			return now, fmt.Errorf("%s: reading parity page %v: %w", k.name, parityAddr, err)
		}
		if got, ok := blockFromSpare(k.Buf.Spare); !ok || got != blk {
			return now, fmt.Errorf("%s: parity page %v inverse-maps to block %v, want %d", k.name, parityAddr, got, blk)
		}
		parityPage = k.Buf.Data
	} else {
		// Metadata-loss path: the per-block ref table did not survive the
		// reboot, so locate the parity page the way the paper's inverse
		// mapping intends — scan the chip's backup blocks and match the
		// protected-block number in each parity page's spare area. The
		// newest match wins (block numbers recur across generations).
		var err error
		parityPage, now, err = k.scanForParity(bp, chip, blk, now, rep)
		if err != nil {
			return now, err
		}
	}
	if len(parityPage) > TokenSize {
		parityPage = parityPage[:TokenSize]
	}
	recovered, err := parity.Recover(parityPage, survivors)
	if err != nil {
		return now, err
	}

	// If the lost page held live data, re-home it; the recovered token
	// carries its LPN.
	lostAddr := nand.PageAddr{
		BlockAddr: nand.BlockAddr{Chip: chip, Block: blk},
		Page:      core.Page{WL: lostWL, Type: core.LSB},
	}
	lpn, live := k.Map.LPNAt(k.lay.PPNOf(lostAddr))
	if !live {
		return now, nil // stale page: parity recomputation is all we needed
	}
	if tokLPN, ok := TokenLPN(recovered); !ok || tokLPN != lpn {
		return now, fmt.Errorf("%s: recovered payload LPN %v does not match mapping %v", k.name, tokLPN, lpn)
	}
	// Re-home on the cold stream: recovered data just survived a crash on a
	// slow block, and stream 0 always exists.
	now, err = tp.program(k, chip, streamCold, PrefFast, lpn, recovered, SpareForLPN(lpn), now, false)
	if err != nil {
		return now, fmt.Errorf("%s: re-homing recovered LPN %d: %w", k.name, lpn, err)
	}
	rep.Recovered = append(rep.Recovered, lpn)
	return now, nil
}

// scanForParity walks the chip's backup blocks in write order — the retired
// ring first, then the current block's written prefix — reading each parity
// page's spare area and keeping the newest page whose inverse mapping names
// the protected block. Only the backup-block list itself (a tiny superblock
// structure any FTL persists) is assumed to survive the reboot.
func (k *Kernel) scanForParity(bp *blockParity, chip, protectedBlk int, now sim.Time, rep *RecoveryReport) ([]byte, sim.Time, error) {
	bk := &bp.backup[chip]
	// Only each retired block's recorded fill was ever programmed; scanning
	// the full word-line width would charge phantom reads of erased pages to
	// the reboot-time budget.
	scan := append([]RetiredBackup(nil), bk.retired...)
	if bk.cur != -1 {
		scan = append(scan, RetiredBackup{Block: bk.cur, Fill: bk.pos})
	}
	var found []byte
	for _, c := range scan {
		for p := 0; p < c.Fill; p++ {
			addr := nand.PageAddr{
				BlockAddr: nand.BlockAddr{Chip: chip, Block: c.Block},
				Page:      core.Page{WL: p, Type: core.LSB},
			}
			t, err := k.Dev.ReadInto(addr, &k.Buf, now)
			rep.PagesRead++
			now = t
			if err != nil {
				continue // unreadable backup page: keep scanning
			}
			if got, ok := blockFromSpare(k.Buf.Spare); ok && got == protectedBlk {
				found = append(found[:0], k.Buf.Data...) // later matches supersede earlier ones
			}
		}
	}
	if found == nil {
		return nil, now, fmt.Errorf("%s: no parity page for block %d found on chip %d's backup blocks", k.name, protectedBlk, chip)
	}
	return found, now, nil
}

// ForgetParityRefs drops the in-memory parity location table, simulating a
// reboot that lost runtime metadata; subsequent recoveries must locate
// parity pages by scanning backup-block spare areas.
func (k *Kernel) ForgetParityRefs() {
	if bp, ok := k.bk.(*blockParity); ok {
		bp.resetRefs(k.Dev.Geometry().TotalBlocks())
	}
}

// ParityScanReport summarizes a RebuildParityRefs pass.
type ParityScanReport struct {
	// PagesRead counts backup-block parity page reads (fills only — sealed
	// and retired blocks are scanned to their recorded fill).
	PagesRead int
	// Restored is how many parity refs were reconstructed from spare areas.
	Restored int
	// Sealed counts partially written backup blocks retired at their
	// crash-time fill.
	Sealed int
	// Recycled counts retired backup blocks whose parities all turned out
	// stale and were erased back to the free pool.
	Recycled   int
	Start, End sim.Time
}

// RebuildParityRefs reconstructs the in-memory parity location table and the
// backup blocks' live counts from flash, for a reboot that lost runtime
// metadata (after ForgetParityRefs). Per chip it first seals the current
// backup block at its crash-time fill — appending to a partially written
// backup block after an unclean shutdown would risk the very pages the
// backup exists to protect — then scans every written backup page's spare
// area, restoring refs for the blocks still awaiting their slow phase (the
// slow-block queue; newer parities supersede older generations of the same
// block number). Retired backup blocks whose parities are all stale are
// recycled — without this pass they would leak forever, since
// onSlowComplete can no longer find their refs.
func (k *Kernel) RebuildParityRefs(now sim.Time) (ParityScanReport, error) {
	rep := ParityScanReport{Start: now}
	tp, bp, err := k.recoveryPolicies()
	if err != nil {
		return rep, err
	}
	bp.resetRefs(k.Dev.Geometry().TotalBlocks())
	end := now
	for chip := range tp.chips {
		chipNow := now
		bk := &bp.backup[chip]
		if bk.cur != -1 {
			if bk.pos > 0 {
				bk.retired = append(bk.retired, RetiredBackup{Block: bk.cur, Fill: bk.pos})
				rep.Sealed++
			} else {
				// Never written: straight back to the free pool.
				k.Pools[chip].PushFree(bk.cur)
			}
			bk.cur, bk.pos = -1, 0
		}
		// The blocks still awaiting their slow phase — across every placement
		// stream's queue; a hot-stream block's parity is as live as a cold
		// one's (the pre-placement-axis code read only one queue here, which
		// would silently drop hot-stream refs and leak their backup blocks).
		ch2 := &tp.chips[chip]
		need := make(map[int]bool)
		for si := range ch2.streams {
			sbq := &ch2.streams[si].sbq
			for i := 0; i < sbq.Len(); i++ {
				need[sbq.At(i)] = true
			}
		}
		clear(bk.live)
		for _, r := range bk.retired {
			for p := 0; p < r.Fill; p++ {
				addr := nand.PageAddr{
					BlockAddr: nand.BlockAddr{Chip: chip, Block: r.Block},
					Page:      core.Page{WL: p, Type: core.LSB},
				}
				t, err := k.Dev.ReadInto(addr, &k.Buf, chipNow)
				rep.PagesRead++
				chipNow = t
				if err != nil {
					continue // unreadable backup page: keep scanning
				}
				protected, ok := blockFromSpare(k.Buf.Spare)
				if !ok || !need[protected] {
					continue
				}
				flat := k.Map.FlatBlock(nand.BlockAddr{Chip: chip, Block: protected})
				if old := bp.refs[flat]; old.backupBlk != -1 {
					bk.live[old.backupBlk]-- // superseded by a newer generation
				}
				bp.refs[flat] = parityRef{backupBlk: r.Block, page: p}
				bk.live[r.Block]++
			}
		}
		before := len(bk.retired)
		bp.recycleRetired(k, chip)
		rep.Recycled += before - len(bk.retired)
		if chipNow > end {
			end = chipNow
		}
	}
	rep.Restored = bp.refLive()
	rep.End = end
	return rep, nil
}

// RebuildMapping reconstructs the logical-to-physical table from flash
// alone: every programmed data page carries its LPN in the spare area and a
// monotone global sequence number in its payload token, so scanning all
// pages and keeping the highest-sequence version per LPN yields the current
// map. This is the full-reboot path a host-level FTL needs when its RAM
// table is gone (the paper's recovery discussion assumes the map; this
// closes that assumption).
//
// The scan respects device timing (every page is read), chips proceeding in
// parallel. Backup-block parity pages identify themselves by their spare
// layout (block-number inverse mapping) and their position outside the data
// pools; they are excluded by consulting the FTL's backup-block lists, which
// a real implementation would persist in a tiny superblock.
func (k *Kernel) RebuildMapping(now sim.Time) (RebuildReport, error) {
	rep := RebuildReport{Start: now}
	_, bp, err := k.recoveryPolicies()
	if err != nil {
		return rep, err
	}
	g := k.Dev.Geometry()

	old := k.Map
	fresh := NewMapper(*k.lay, k.LogicalPages(), k.Dev)
	bestSeq := make(map[LPN]uint64)

	end := now
	for chip := 0; chip < g.Chips(); chip++ {
		chipNow := now
		backup := bp.backupBlockSet(chip)
		for blk := 0; blk < g.BlocksPerChip; blk++ {
			if backup[blk] {
				continue
			}
			for idx := 0; idx < g.PagesPerBlock(); idx++ {
				page := core.PageFromIndex(idx, g.WordLinesPerBlock)
				addr := nand.PageAddr{BlockAddr: nand.BlockAddr{Chip: chip, Block: blk}, Page: page}
				if !k.Dev.IsProgrammed(addr) {
					continue
				}
				t, err := k.Dev.ReadInto(addr, &k.Buf, chipNow)
				rep.PagesScanned++
				chipNow = t
				if err != nil {
					if errors.Is(err, nand.ErrUncorrectable) {
						continue // lost page; parity recovery handles it separately
					}
					return rep, fmt.Errorf("%s: rebuild read %v: %w", k.name, addr, err)
				}
				data, spare := k.Buf.Data, k.Buf.Spare
				lpn, ok := LPNFromSpare(spare)
				if !ok || lpn < 0 || int64(lpn) >= k.LogicalPages() {
					continue // not a data page (e.g. padding)
				}
				tokLPN, ok := TokenLPN(data)
				if !ok || tokLPN != lpn {
					continue // payload disagrees with spare: not a live data page
				}
				seq := TokenSeq(data)
				if prev, exists := bestSeq[lpn]; exists && seq <= prev {
					continue
				}
				// Update re-points the LPN, invalidating any older copy the
				// scan found earlier.
				fresh.Update(lpn, k.lay.PPNOf(addr))
				bestSeq[lpn] = seq
			}
		}
		if chipNow > end {
			end = chipNow
		}
	}
	rep.End = end

	// Compare against the in-RAM table (when it survived) for diagnostics.
	for lpn := LPN(0); int64(lpn) < k.LogicalPages(); lpn++ {
		oldPPN, oldOK := old.Lookup(lpn)
		newPPN, newOK := fresh.Lookup(lpn)
		if oldOK != newOK || (oldOK && oldPPN != newPPN) {
			rep.Mismatches++
		}
	}
	rep.Mapped = fresh.Mapped()
	// SetMapper (not a bare assignment) rewires the victim-index hook and
	// re-buckets every pool against the fresh table's valid counts.
	k.SetMapper(fresh)
	return rep, nil
}
