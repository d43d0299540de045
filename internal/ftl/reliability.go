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

// RelPolicy parameterizes the kernel's responses to the device reliability
// model: how hard the ECC envelope may be pushed before data moves (refresh),
// how worn a block may get before it leaves service (retirement), and how
// much idle time goes into patrol reads (scrubbing). Enabling the policy
// requires a device built with a rel.Config — the model supplies the BER
// predictions the thresholds act on.
type RelPolicy struct {
	// TargetPageFailure is the acceptable per-page-read failure probability
	// after the full retry ladder; the raw-BER budget every threshold below
	// derives from is rel.Config.BERBudget(pageSize, TargetPageFailure).
	TargetPageFailure float64
	// RefreshFraction, in (0,1], positions the refresh line: a full block
	// whose predicted BER (oldest data, current read disturb) crosses
	// RefreshFraction x budget is relocated during idle windows, resetting
	// its retention and disturb clocks before reads start failing.
	RefreshFraction float64
	// RetireFraction, in (0,1] and >= RefreshFraction, positions the
	// retirement line: a block whose post-erase fresh-data BER already
	// crosses RetireFraction x budget can no longer hold data for a full
	// retention period and is taken out of service (capacity shrinks).
	RetireFraction float64
	// ScrubReadsPerIdle bounds the patrol reads issued per idle window (0
	// disables scrubbing; refresh and retirement still run).
	ScrubReadsPerIdle int
}

// DefaultRelPolicy returns the reference policy: a 1e-4 page-failure target,
// refresh at 60% of the budget, retire at 90%, 8 patrol reads per idle
// window.
func DefaultRelPolicy() *RelPolicy {
	return &RelPolicy{
		TargetPageFailure: 1e-4,
		RefreshFraction:   0.6,
		RetireFraction:    0.9,
		ScrubReadsPerIdle: 8,
	}
}

// Validate rejects unusable policies.
func (p *RelPolicy) Validate() error {
	if !(p.TargetPageFailure > 0 && p.TargetPageFailure < 1) {
		return fmt.Errorf("ftl: reliability target page failure %g outside (0,1)", p.TargetPageFailure)
	}
	if !(p.RefreshFraction > 0 && p.RefreshFraction <= 1) {
		return fmt.Errorf("ftl: refresh fraction %g outside (0,1]", p.RefreshFraction)
	}
	if !(p.RetireFraction > 0 && p.RetireFraction <= 1) {
		return fmt.Errorf("ftl: retire fraction %g outside (0,1]", p.RetireFraction)
	}
	if p.RetireFraction < p.RefreshFraction {
		return fmt.Errorf("ftl: retire fraction %g below refresh fraction %g (blocks would retire before ever refreshing)",
			p.RetireFraction, p.RefreshFraction)
	}
	if p.ScrubReadsPerIdle < 0 {
		return fmt.Errorf("ftl: scrub reads per idle %d < 0", p.ScrubReadsPerIdle)
	}
	return nil
}

// initReliability derives the Base's BER thresholds from the policy and the
// device's model. Called by NewBase when a policy is configured.
func (b *Base) initReliability(rp *RelPolicy) error {
	rc := b.Dev.Reliability()
	if rc == nil {
		return fmt.Errorf("ftl: reliability policy configured but the device has no reliability model")
	}
	b.relEnabled = true
	budget := rc.BERBudget(b.Dev.Geometry().PageSizeBytes, rp.TargetPageFailure)
	b.relRefreshBER = rp.RefreshFraction * budget
	b.relRetireBER = rp.RetireFraction * budget
	return nil
}

// maybeRetire applies the retirement policy to a freshly erased block: when
// its post-erase predicted BER for fresh data crosses the retire line, the
// block cannot safely hold data for a full retention period any more, so it
// leaves service instead of returning to the free pool. The caller owns the
// block (it is off all lists); retirement shrinks capacity by one block,
// exactly like an erase-budget wear-out. Reports whether the block retired.
//
// Safe inside channel shards: the decision reads only the block's chip-local
// wear, and the shard planner's free-block headroom counts pops, not pushes —
// skipping the PushFree can only leave more margin.
func (b *Base) maybeRetire(chip, blk int) bool {
	if !b.relEnabled {
		return false
	}
	addr := nand.BlockAddr{Chip: chip, Block: blk}
	if b.Dev.PredictFreshBER(addr) < b.relRetireBER {
		return false
	}
	if err := b.Dev.RetireBlock(addr); err != nil {
		return false
	}
	b.St.RetiredBlocks++
	return true
}

// relocateLost prepares b.Buf for relocating a page whose GC read failed the
// ECC ladder: a parity rebuild when the page is covered, otherwise a
// fabricated placeholder token plus a pending mark so markRelocatedLoss pins
// the new physical location lost once the relocation lands. Either way the
// collection continues — one dead page must not leak a whole victim block.
func (b *Base) relocateLost(lpn LPN, lost nand.PageAddr, now sim.Time) sim.Time {
	if b.repairRead != nil {
		if t, ok := b.repairRead(b, lpn, lost, now); ok {
			b.St.ECCRebuilds++
			return t
		}
	}
	b.Buf.Data = append(b.Buf.Data[:0], b.Token(lpn)...)
	b.Buf.Spare = append(b.Buf.Spare[:0], b.Spare(lpn)...)
	b.relLostPending = true
	return now
}

// markRelocatedLoss pins the freshly relocated copy of lpn lost when the
// relocation carried a placeholder token (flagged by relocateLost). The LPN
// stays mapped: a later host read must fail loudly, not read back the
// placeholder as if it were data.
func (b *Base) markRelocatedLoss(lpn LPN) {
	if !b.relLostPending {
		return
	}
	b.relLostPending = false
	b.St.GCReadLosses++
	if ppn, ok := b.Map.Lookup(lpn); ok {
		_ = b.Dev.MarkLost(b.lay.Addr(ppn))
	}
}

// relIdle is the reliability slice of an idle window, run between background
// GC and the order policy's own idle work: a bounded patrol-read scrub over
// the mapped space, then a refresh scan that relocates full blocks whose
// predicted BER approaches the ECC budget. Only ever called on the real
// kernel (idle windows never execute inside channel shards).
func (k *Kernel) relIdle(now, until sim.Time) sim.Time {
	if !k.relEnabled {
		return now
	}
	now = k.scrubPatrol(now, until)
	return k.refreshScan(now, until)
}

// scrubPatrol issues up to ScrubReadsPerIdle patrol reads over the mapped
// physical space, rotating a persistent cursor so successive idle windows
// cover different pages. A patrol read that comes back uncorrectable is
// repaired from parity and re-homed when possible; otherwise the page is
// pinned lost so the eventual host read fails deterministically instead of
// silently returning garbage.
func (k *Kernel) scrubPatrol(now, until sim.Time) sim.Time {
	rp := k.Cfg.Reliability
	if rp.ScrubReadsPerIdle <= 0 {
		return now
	}
	g := k.Dev.Geometry()
	t := k.Dev.Timing()
	// Worst-case cost of one patrol read (full retry ladder) plus the
	// relocation it may trigger; budgeted before issue so the patrol never
	// overruns the window.
	perRead := t.Read*sim.Time(1+k.Dev.Reliability().MaxRetries) + t.BusXfer
	perFix := GCPageCopyCost(t, g.BitsPerCell())
	total := int64(g.TotalPages())
	reads := 0
	for probes := int64(0); probes < total && reads < rp.ScrubReadsPerIdle; probes++ {
		ppn := nand.PPN(k.scrubCursor)
		if k.scrubCursor++; k.scrubCursor == total {
			k.scrubCursor = 0
		}
		lpn, mapped := k.Map.LPNAt(ppn)
		if !mapped {
			continue
		}
		if now+perRead+perFix > until {
			break
		}
		reads++
		chip := k.lay.ChipOf(ppn)
		prev := k.Dev.SetCauseChip(chip, obs.CauseScrub)
		done, err := k.Dev.ReadPPN(ppn, &k.Buf, now)
		k.Dev.SetCauseChip(chip, prev)
		k.St.ScrubReads++
		now = done
		if err == nil {
			continue
		}
		if !errors.Is(err, rel.ErrUncorrectable) {
			return now // power-loss corruption etc.: not the scrubber's problem
		}
		addr := k.lay.Addr(ppn)
		if k.repairRead != nil {
			if t2, ok := k.repairRead(k.Base, lpn, addr, now); ok {
				now = t2
				k.St.ECCRebuilds++
				// Re-home the rebuilt payload before the stripe loses a
				// second page. Copy out of Buf first: the relocation path
				// may itself read through Buf.
				var tok [TokenSize]byte
				n := copy(tok[:], k.Buf.Data)
				var sp [SpareSize]byte
				copy(sp[:], k.Buf.Spare)
				prev = k.Dev.SetCauseChip(addr.Chip, obs.CauseScrub)
				t2, err = k.gcAlloc(addr.Chip, lpn, tok[:n], sp[:], now)
				k.Dev.SetCauseChip(addr.Chip, prev)
				if err != nil {
					return now
				}
				now = t2
				// The rewrite rides the GC relocation path, so the LSB/MSB
				// split counters already moved; keep GCCopies consistent.
				k.St.GCCopies++
				k.St.RefreshCopies++
				continue
			}
		}
		// Unrepairable: pin the loss. The mapping stays intact — the host
		// must see a read failure, not an unmapped page.
		_ = k.Dev.MarkLost(addr)
		k.St.UncorrectableReads++
	}
	return now
}

// refreshScan walks the full blocks (one lap per idle window at most),
// relocating any whose predicted BER — oldest data at current wear, age and
// read disturb — has crossed the refresh line. The relocation is a normal GC
// collection charged to the scrub cause: valid pages move to fresh blocks
// (resetting their retention clocks), the block is erased (resetting its
// disturb counter) and passes through the retirement check like any other
// erase.
func (k *Kernel) refreshScan(now, until sim.Time) sim.Time {
	g := k.Dev.Geometry()
	t := k.Dev.Timing()
	total := g.TotalBlocks()
	bpc := g.BlocksPerChip
	for probes := 0; probes < total; probes++ {
		flat := k.refreshCursor
		k.refreshCursor = (k.refreshCursor + 1) % total
		chip, blk := flat/bpc, flat%bpc
		if !k.Pools[chip].IsFull(blk) {
			continue
		}
		addr := nand.BlockAddr{Chip: chip, Block: blk}
		if k.Dev.PredictBlockBER(addr, now) < k.relRefreshBER {
			continue
		}
		if now+EstimateGCCost(t, g.BitsPerCell(), k.Map.ValidCount(addr)) > until {
			// The window cannot absorb this collection; rewind so the next
			// idle window retries the same block first.
			k.refreshCursor = flat
			break
		}
		copiesBefore := k.St.GCCopies
		done, err := k.collectVictim(chip, blk, now, k.gcAlloc, obs.CauseScrub)
		if err != nil {
			return now
		}
		now = done
		k.St.RefreshedBlocks++
		k.St.RefreshCopies += k.St.GCCopies - copiesBefore
	}
	return now
}

// rebuildRead attempts to reconstruct an ECC-lost page in place from the
// per-block parity of Section 3.3: coverable pages are LSB pages of blocks
// whose parity reference is still live (the reference is cleared when the
// block's slow phase completes — and a live reference also keeps the backup
// block unerased, so the parity is always readable). On success the rebuilt
// payload and its reverse-map spare are left in b.Buf, exactly as if the
// original read had succeeded, and the advanced chip time is returned.
//
// The rebuild is pure — no mapping updates, no programs — so it is legal on
// every read path, including host reads inside channel shards (all reads
// stay on the lost page's chip). Re-homing the data is the scrub patrol's
// job, on the real kernel only.
func (bp *blockParity) rebuildRead(b *Base, lpn LPN, lost nand.PageAddr, now sim.Time) (sim.Time, bool) {
	if lost.Page.Type != core.LSB {
		return now, false
	}
	ref := bp.refs[b.Map.FlatBlock(lost.BlockAddr)]
	if ref.backupBlk == -1 {
		return now, false
	}
	g := b.Dev.Geometry()
	prev := b.Dev.SetCauseChip(lost.Chip, obs.CauseScrub)
	defer b.Dev.SetCauseChip(lost.Chip, prev)
	parityAddr := nand.PageAddr{
		BlockAddr: nand.BlockAddr{Chip: lost.Chip, Block: ref.backupBlk},
		Page:      core.Page{WL: ref.page, Type: core.LSB},
	}
	now, err := b.Dev.ReadInto(parityAddr, &b.Buf, now)
	if err != nil {
		return now, false
	}
	if got, ok := blockFromSpare(b.Buf.Spare); !ok || got != lost.Block {
		return now, false
	}
	acc := make([]byte, TokenSize)
	copy(acc, b.Buf.Data)
	// XOR in every surviving LSB page of the stripe (a live reference means
	// the fast phase completed, so all of them are programmed). A second
	// uncorrectable page in the stripe defeats single parity.
	for wl := 0; wl < g.WordLinesPerBlock; wl++ {
		if wl == lost.Page.WL {
			continue
		}
		sAddr := nand.PageAddr{BlockAddr: lost.BlockAddr, Page: core.Page{WL: wl, Type: core.LSB}}
		now, err = b.Dev.ReadInto(sAddr, &b.Buf, now)
		if err != nil {
			return now, false
		}
		for i := 0; i < TokenSize && i < len(b.Buf.Data); i++ {
			acc[i] ^= b.Buf.Data[i]
		}
	}
	if got, ok := TokenLPN(acc); !ok || got != lpn {
		return now, false
	}
	b.Buf.Data = append(b.Buf.Data[:0], acc...)
	b.Buf.Spare = append(b.Buf.Spare[:0], b.Spare(lpn)...)
	return now, true
}
