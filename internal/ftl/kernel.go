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
	// streams (placement.streams()) and wordLines (the geometry's word lines
	// per block) are fixed per kernel; the per-page paths read them here
	// instead of through an interface call or a Geometry copy.
	streams, wordLines int
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
// from its stream count; each may reject the device or configuration.
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
		wordLines:    dev.Geometry().WordLinesPerBlock,
	}
	if err := k.placement.init(k); err != nil {
		return nil, err
	}
	k.streams = k.placement.streams()
	_, noWriter := k.bk.(noBackup)
	_, phased := k.ord.(*twoPhase)
	k.Budget = newChipBudget(cfg, k.streams, !noWriter, phased)
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
// collect victims until the chip holds the budget's Reclaim level (or no
// victim remains).
func (k *Kernel) reserveGC(chip int, now sim.Time) (sim.Time, error) {
	for k.Pools[chip].FreeCount() < k.Budget.Reclaim {
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

// Snapshot (snapshot.go) is the one view of the policy state; the three reads
// below stay for the runner's sampler and the crash campaign's sabotage path.

// Quota returns the adaptive allocator's current LSB budget q (0 when the
// fixed allocator is mounted).
func (k *Kernel) Quota() int64 {
	if a, ok := k.alloc.(*adaptiveAlloc); ok {
		return a.q
	}
	return 0
}

// SlowQueueLen returns the chip's slow block queue depth under two-phase
// ordering, summed over placement streams (0 otherwise).
func (k *Kernel) SlowQueueLen(chip int) int {
	if o, ok := k.ord.(*twoPhase); ok {
		return o.chips[chip].queued
	}
	return 0
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
