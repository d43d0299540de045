package ftl

import (
	"fmt"

	"flexftl/internal/nand"
	"flexftl/internal/obs"
	"flexftl/internal/sim"
)

// Kernel is the composable FTL engine: one write/read/trim/GC/idle machine
// parameterized by four policies. The order policy owns page ordering and
// the block life cycle, the backup strategy owns paired-page power-cut
// protection, the allocation policy owns the LSB/MSB preference of every
// program, and the placement policy owns destination-block choice (data
// streams and free-block selection). Every scheme the paper evaluates — and
// any hybrid — is a Kernel with a different policy tuple (see schemes.go and
// the registry).
type Kernel struct {
	*Base
	name      string
	ord       OrderPolicy
	bk        BackupStrategy
	alloc     AllocPolicy
	placement PlacementPolicy
	// retokenizeGC makes GC relocations carry a fresh sequence number so a
	// flash-scan rebuild can always tell the live copy from the
	// not-yet-erased original (flexFTL's choice; the FPS schemes relocate
	// payloads verbatim).
	retokenizeGC bool
	inBGC        bool            // inside a background-GC window (quota accounting)
	pred         *writePredictor // Section 6 extension (nil unless enabled)
}

var _ FTL = (*Kernel)(nil)

// KernelSpec bundles the policy tuple and the kernel-level switches a
// scheme constructor passes to NewKernel.
type KernelSpec struct {
	// Name identifies the scheme ("pageFTL", "flexFTL", ...).
	Name string
	// Order, Backup and Alloc are the three mandatory policies; use
	// NoBackupStrategy() and FixedAllocPolicy(PrefOrder, PrefOrder) for
	// schemes that don't care.
	Order  OrderPolicy
	Backup BackupStrategy
	Alloc  AllocPolicy
	// Place is the placement policy (nil = SinglePlacementPolicy, the
	// pre-placement-axis behavior).
	Place PlacementPolicy
	// RetokenizeGC gives GC relocations fresh sequence numbers (see
	// Kernel.retokenizeGC).
	RetokenizeGC bool
	// Predictive enables the EWMA future-write predictor that extends the
	// background collector's reclaim target (Section 6).
	Predictive bool
	// PredictorAlpha is the EWMA smoothing factor (default 0.3).
	PredictorAlpha float64
}

// NewKernel assembles an FTL from a policy tuple over the device. Policies
// initialize in placement, order, backup, allocation sequence — placement
// first because the order and backup policies size their per-stream state
// from placement.streams(); each may reject the device or configuration.
func NewKernel(dev *nand.Device, cfg Config, spec KernelSpec) (*Kernel, error) {
	if spec.Order == nil || spec.Backup == nil || spec.Alloc == nil {
		return nil, fmt.Errorf("ftl: kernel %q needs order, backup and allocation policies", spec.Name)
	}
	base, err := NewBase(dev, cfg)
	if err != nil {
		return nil, err
	}
	place := spec.Place
	if place == nil {
		place = SinglePlacementPolicy()
	}
	k := &Kernel{
		Base:         base,
		name:         spec.Name,
		ord:          spec.Order,
		bk:           spec.Backup,
		alloc:        spec.Alloc,
		placement:    place,
		retokenizeGC: spec.RetokenizeGC,
	}
	if err := k.placement.init(k); err != nil {
		return nil, err
	}
	if err := k.ord.init(k); err != nil {
		return nil, err
	}
	if err := k.bk.init(k); err != nil {
		return nil, err
	}
	if err := k.alloc.init(k); err != nil {
		return nil, err
	}
	if spec.Predictive {
		alpha := spec.PredictorAlpha
		if alpha <= 0 || alpha > 1 {
			alpha = 0.3
		}
		k.pred = newWritePredictor(alpha)
	}
	if base.relEnabled {
		// The per-block parity strategy can rebuild an ECC-lost LSB page
		// from its stripe; other strategies leave repairRead nil (losses are
		// detected, not masked).
		if bp, ok := k.bk.(*blockParity); ok {
			base.repairRead = bp.rebuildRead
		}
	}
	return k, nil
}

// Name identifies the scheme.
func (k *Kernel) Name() string { return k.name }

// Write services a host page write. util is the write-buffer utilization the
// allocation policy consumes (ignored by the fixed allocator).
func (k *Kernel) Write(lpn LPN, now sim.Time, util float64) (sim.Time, error) {
	return k.writeOn(k.NextChip(), lpn, now, util)
}

// Read services a host page read.
func (k *Kernel) Read(lpn LPN, now sim.Time) (sim.Time, error) {
	return k.ReadLPN(lpn, now)
}

// Idle offers the kernel a background window: incremental GC under the
// allocation policy's relocation preference, then the order policy's own
// idle work (the return-to-fast MSB drain). The inBGC latch makes the
// adaptive allocator credit these relocations to the quota q.
func (k *Kernel) Idle(now, until sim.Time) {
	k.inBGC = true
	defer func() { k.inBGC = false }()
	shouldRun := k.BGCWanted
	if k.pred != nil {
		// Section 6 extension: the idle window closes the active period and
		// the collector reclaims until the *predicted* next burst fits in
		// free fast capacity (on top of the base cushion).
		k.pred.PeriodEnd()
		shouldRun = func() bool {
			if k.BGCWanted() {
				return true
			}
			w := k.Dev.Geometry().LSBPagesPerBlock()
			freeLSB := float64(k.TotalFreeBlocks() * w)
			reserve := k.Cfg.GCFreeFraction * float64(k.Dev.Geometry().TotalBlocks()) * float64(w)
			return freeLSB < k.pred.PredictedPages()+reserve
		}
	}
	now = k.RunBackgroundGC(now, until, shouldRun, k.gcAlloc)
	now = k.relIdle(now, until)
	k.ord.idleDrain(k, now, until)
}

// gcAlloc is the relocation path the shared GC engine calls for every valid
// page it moves: the allocation policy picks the page type, the placement
// policy routes the stream (always cold, by contract), then the order policy
// places it.
func (k *Kernel) gcAlloc(chip int, lpn LPN, data, spare []byte, now sim.Time) (sim.Time, error) {
	pref := k.alloc.chooseGC(k, chip)
	stream := k.placement.classify(k, lpn, now, true)
	if k.retokenizeGC {
		// A fresh sequence number lets a flash-scan rebuild always tell the
		// live copy from the not-yet-erased original.
		data = k.Token(lpn)
	}
	return k.ord.program(k, chip, stream, pref, lpn, data, spare, now, true)
}

// reserveGC is the plain foreground-reclaim loop the FPS order policies use:
// collect victims until the chip holds its free reserve (or no victim
// remains).
func (k *Kernel) reserveGC(chip int, now sim.Time, reserve int) (sim.Time, error) {
	for k.Pools[chip].FreeCount() < reserve {
		victim, ok := k.Pools[chip].PickVictim()
		if !ok {
			break
		}
		var err error
		now, err = k.CollectVictim(chip, victim, now, k.gcAlloc)
		if err != nil {
			return now, err
		}
		k.St.ForegroundGCs++
	}
	return now, nil
}

// noteData splits the per-page-type counters for one data program.
func (k *Kernel) noteData(isLSB, fromGC bool) {
	switch {
	case isLSB && fromGC:
		k.St.GCCopiesLSB++
	case isLSB:
		k.St.HostWritesLSB++
	case fromGC:
		k.St.GCCopiesMSB++
	default:
		k.St.HostWritesMSB++
		// The reprogram penalty: this host write paid a slow (MSB) program
		// where a fast (LSB) page would have served, the two-phase/allocation
		// cost axis of the paper.
		k.ctrBlameReprogram.Add(k.reprogPenalty)
	}
}

// backupAfterLSB routes the backup strategy's per-LSB hook through the
// attribution layer: media ops it issues are charged to CauseBackup, and any
// completion-time extension beyond the data program is blamed on backup.
func (k *Kernel) backupAfterLSB(chip, stream int, data []byte, done sim.Time) (sim.Time, error) {
	prev := k.Dev.SetCauseChip(chip, obs.CauseBackup)
	ext, err := k.bk.afterLSB(k, chip, stream, data, done)
	k.Dev.SetCauseChip(chip, prev)
	if ext > done {
		k.ctrBlameBackup.Add(int64(ext - done))
	}
	return ext, err
}

// backupOnFastComplete is the CauseBackup-attributed wrapper around the
// fast-block-complete hook (the per-block parity write).
func (k *Kernel) backupOnFastComplete(chip, stream, fastBlk int, done sim.Time) (sim.Time, error) {
	prev := k.Dev.SetCauseChip(chip, obs.CauseBackup)
	ext, err := k.bk.onFastComplete(k, chip, stream, fastBlk, done)
	k.Dev.SetCauseChip(chip, prev)
	if ext > done {
		k.ctrBlameBackup.Add(int64(ext - done))
	}
	return ext, err
}

// backupOnSlowComplete is the CauseBackup-attributed wrapper around the
// slow-block-complete hook (parity invalidation + backup-block recycling;
// erases it triggers are media work, not host-visible stall).
func (k *Kernel) backupOnSlowComplete(chip, blk int) {
	prev := k.Dev.SetCauseChip(chip, obs.CauseBackup)
	k.bk.onSlowComplete(k, chip, blk)
	k.Dev.SetCauseChip(chip, prev)
}

// PageSize returns the data-page size in bytes (runner bandwidth input).
func (k *Kernel) PageSize() int { return k.Dev.Geometry().PageSizeBytes }

// Chips returns the chip count (runner track allocation).
func (k *Kernel) Chips() int { return k.Dev.Geometry().Chips() }

// --- Policy-state accessors -------------------------------------------------
//
// White-box tests and the recovery tooling inspect policy internals through
// these; each degrades to a neutral value when the mounted policy has no such
// state. Stream-indexed internals surface either aggregated (queue depths,
// block censuses) or per-stream via the *On variants; the plain accessors
// read stream 0 — exactly the pre-placement-axis state for single-stream
// schemes.

// Quota returns the adaptive allocator's current LSB budget q (0 when the
// fixed allocator is mounted).
func (k *Kernel) Quota() int64 {
	if a, ok := k.alloc.(*adaptiveAlloc); ok {
		return a.q
	}
	return 0
}

// InitialQuota returns q's starting value (0 for the fixed allocator).
func (k *Kernel) InitialQuota() int64 {
	if a, ok := k.alloc.(*adaptiveAlloc); ok {
		return a.q0
	}
	return 0
}

// SlowQueueLen returns the chip's slow block queue depth under two-phase
// ordering, summed over placement streams (0 otherwise).
func (k *Kernel) SlowQueueLen(chip int) int {
	o, ok := k.ord.(*twoPhase)
	if !ok {
		return 0
	}
	total := 0
	for s := range o.chips[chip].streams {
		total += o.chips[chip].streams[s].sbq.Len()
	}
	return total
}

// ActiveSlowBlock returns the stream-0 active slow block (the head of its
// slow block queue), or -1 when there is none.
func (k *Kernel) ActiveSlowBlock(chip int) int {
	if o, ok := k.ord.(*twoPhase); ok {
		if st := &o.chips[chip].streams[0]; st.sbq.Len() > 0 {
			return st.sbq.Front()
		}
	}
	return -1
}

// SlowQueueBlock returns the i-th block of the stream-0 slow block queue
// under two-phase ordering (-1 otherwise). Index 0 is the active slow block.
func (k *Kernel) SlowQueueBlock(chip, i int) int {
	if o, ok := k.ord.(*twoPhase); ok {
		return o.chips[chip].streams[0].sbq.At(i)
	}
	return -1
}

// ActiveSlowProgress returns how many MSB pages of the stream-0 active slow
// block have been programmed.
func (k *Kernel) ActiveSlowProgress(chip int) int {
	if o, ok := k.ord.(*twoPhase); ok {
		return o.chips[chip].streams[0].asbPos
	}
	return 0
}

// ActiveFastBlock returns the stream-0 active fast block under two-phase
// ordering, or -1 when there is none.
func (k *Kernel) ActiveFastBlock(chip int) int {
	if o, ok := k.ord.(*twoPhase); ok {
		return o.chips[chip].streams[0].afb
	}
	return -1
}

// BackupCurrentBlock returns the per-block parity strategy's open backup
// block on the chip, or -1 when none (or another strategy is mounted).
func (k *Kernel) BackupCurrentBlock(chip int) int {
	if b, ok := k.bk.(*blockParity); ok {
		return b.backup[chip].cur
	}
	return -1
}

// RetiredBackupBlocks returns how many filled backup blocks on the chip await
// recycling under the per-block parity strategy.
func (k *Kernel) RetiredBackupBlocks(chip int) int {
	if b, ok := k.bk.(*blockParity); ok {
		return len(b.backup[chip].retired)
	}
	return 0
}

// RetiredBackupBlockList returns a copy of the chip's retired parity backup
// blocks awaiting recycling (nil when another strategy is mounted).
func (k *Kernel) RetiredBackupBlockList(chip int) []int {
	if b, ok := k.bk.(*blockParity); ok {
		out := make([]int, 0, len(b.backup[chip].retired))
		for _, r := range b.backup[chip].retired {
			out = append(out, r.blk)
		}
		return out
	}
	return nil
}

// RetiredBackupFill returns how many parity pages were written into the
// chip's i-th retired backup block (-1 when out of range or another strategy
// is mounted). Full retirement yields WordLinesPerBlock; a crash-time seal
// can leave less.
func (k *Kernel) RetiredBackupFill(chip, i int) int {
	if b, ok := k.bk.(*blockParity); ok {
		if ret := b.backup[chip].retired; i >= 0 && i < len(ret) {
			return ret[i].fill
		}
	}
	return -1
}

// BackupRing returns the pair-parity strategy's current and previous backup
// blocks on the chip (-1, -1 when another strategy is mounted).
func (k *Kernel) BackupRing(chip int) (cur, prev int) {
	if b, ok := k.bk.(*pairParity); ok {
		return b.ring[chip].cur, b.ring[chip].prev
	}
	return -1, -1
}

// PoolHasMSBNext reports whether the FPS-pool order has an active slot
// waiting on an MSB page (false for other orders).
func (k *Kernel) PoolHasMSBNext(chip int) bool {
	if o, ok := k.ord.(*fpsPool); ok {
		return o.chipHasMSBNext(chip)
	}
	return false
}

// LSBReadySlots returns how many of the FPS-pool order's active slots will
// next program an LSB page (0 for other orders).
func (k *Kernel) LSBReadySlots(chip int) int {
	if o, ok := k.ord.(*fpsPool); ok {
		return o.lsbReadyCount(chip)
	}
	return 0
}

// LastMSB returns the chip's most recent MSB program under two-phase
// ordering: its LPN, the physical page it superseded (InvalidPPN if none),
// whether it was a GC relocation, and which placement stream issued it. ok
// is false for other orders or before the first MSB program. The record is
// per chip, not per stream: the device keeps at most one destructive MSB
// window per chip (a newer program supersedes the previous window), so only
// the newest MSB program is ever at risk.
func (k *Kernel) LastMSB(chip int) (lpn LPN, prev nand.PPN, fromGC bool, stream int, ok bool) {
	o, isTP := k.ord.(*twoPhase)
	if !isTP {
		return 0, nand.InvalidPPN, false, 0, false
	}
	ch := &o.chips[chip]
	if ch.lastMSBPrev == nand.InvalidPPN && ch.lastMSBLPN == 0 {
		// Heuristic for "no MSB program yet": every stream still sits at the
		// start of an empty slow phase.
		noMSB := true
		for s := range ch.streams {
			if ch.streams[s].asbPos != 0 || ch.streams[s].sbq.Len() != 0 {
				noMSB = false
				break
			}
		}
		if noMSB {
			return 0, nand.InvalidPPN, false, 0, false
		}
	}
	return ch.lastMSBLPN, ch.lastMSBPrev, ch.lastMSBGC, ch.lastMSBStream, true
}

// ParityRef locates the parity backup page protecting the given fast/slow
// block under the per-block parity strategy (ok false otherwise). Fault
// injection in the crash campaign uses it to corrupt a parity page and prove
// the invariants notice.
func (k *Kernel) ParityRef(chip, blk int) (backupBlk, page int, ok bool) {
	if b, isBP := k.bk.(*blockParity); isBP {
		if ref := b.refs[k.Map.FlatBlock(nand.BlockAddr{Chip: chip, Block: blk})]; ref.backupBlk != -1 {
			return ref.backupBlk, ref.page, true
		}
	}
	return -1, -1, false
}

// AccountBlocks is the chip's block census: free and full pool sizes, active
// data blocks held by the order policy (summed over placement streams),
// backup blocks held by the backup strategy, and the in-flight
// background-GC victim (0 or 1). The crash campaign asserts the five sum to
// BlocksPerChip (minus retired blocks) at every crash point — leaked blocks
// are recovery-path bugs.
func (k *Kernel) AccountBlocks(chip int) (free, full, active, backup, bg int) {
	free = k.Pools[chip].FreeCount()
	full = k.Pools[chip].FullCount()
	switch o := k.ord.(type) {
	case *fpsSingle:
		for _, cur := range o.active[chip] {
			if cur.blk != -1 {
				active++
			}
		}
	case *fpsPool:
		for _, cur := range o.active[chip] {
			if cur.blk != -1 {
				active++
			}
		}
	case *twoPhase:
		for s := range o.chips[chip].streams {
			st := &o.chips[chip].streams[s]
			if st.afb != -1 {
				active++
			}
			active += st.sbq.Len()
		}
	}
	switch b := k.bk.(type) {
	case *pairParity:
		if b.ring[chip].cur != -1 {
			backup++
		}
		if b.ring[chip].prev != -1 {
			backup++
		}
	case *blockParity:
		if b.backup[chip].cur != -1 {
			backup++
		}
		backup += len(b.backup[chip].retired)
	}
	if c, _, ok := k.BackgroundVictim(); ok && c == chip {
		bg++
	}
	return free, full, active, backup, bg
}
