package ftl

import (
	"encoding/binary"
	"errors"
	"fmt"

	"flexftl/internal/nand"
	"flexftl/internal/obs"
	"flexftl/internal/pagemem"
	"flexftl/internal/rel"
	"flexftl/internal/sim"
)

// ErrUnmapped is returned by reads of logical pages that were never written.
var ErrUnmapped = errors.New("ftl: read of unmapped LPN")

// Base carries the state and helpers shared by every scheme — the kernel
// configurations embed it, nflex holds it as a field: device handle, mapping
// table, per-chip pools, counters, payload token generation and the common
// GC engine.
type Base struct {
	Dev *nand.Device
	// lay is the device's page numbering.
	lay   *nand.Layout
	Map   *Mapper
	Cfg   Config
	Pools []*FreePool
	full  []bool // the pools' flat full-list flags (newPools)
	St    Stats

	// Budget is the per-chip free-block budget. NewBase sets nflex's (one
	// stream, phased, a backup writer); NewKernel sets its policies' own.
	Budget chipBudget

	// Obs is the observability recorder threaded through the stack; nil
	// (the default) disables all emission at zero cost.
	Obs *obs.Recorder
	// Buf is the reusable page buffer for read paths that either discard
	// the payload or hand it to Program (which copies) before the next
	// read: host reads, GC relocation, recovery rescans. Sharing one
	// buffer is safe because the FTLs are single-threaded per instance
	// and no alloc callback performs a nested device read.
	Buf nand.PageBuf

	// Reliability-response state (zero when Cfg.Reliability is nil). The
	// thresholds are raw-BER lines derived from the device model's ECC
	// budget in initReliability; the cursors persist across idle windows so
	// scrubbing and refresh rotate over the whole device.
	relEnabled     bool
	relRefreshBER  float64
	relRetireBER   float64
	scrubCursor    int64
	refreshCursor  int
	relLostPending bool // a GC relocation in flight carries a placeholder for lost data
	// repairRead attempts an in-place parity rebuild of an ECC-lost page,
	// leaving the payload in Buf on success. Set by NewKernel when the
	// mounted backup strategy can rebuild (blockParity) and the reliability
	// policy is on; nil otherwise. It takes the Base explicitly — shard
	// clones copy Base by value, and a closure over the original kernel
	// would repair into the wrong buffer and stats.
	repairRead func(b *Base, lpn LPN, lost nand.PageAddr, now sim.Time) (sim.Time, bool)

	seq  int64    // global write sequence number (payload uniqueness)
	rr   int      // round-robin chip cursor for host writes
	inGC bool     // guards against GC re-entry through alloc callbacks
	bg   bgVictim // in-progress background-GC victim (survives idle windows)
	hyst bool     // background-GC hysteresis latch
	// shardExec marks a per-channel shard clone of the epoch-sharded run
	// engine (shard.go): the adaptive quota freezes (the barrier replays it)
	// and GC must be unreachable (the planner's free-block margin guarantees
	// it; CollectVictim panics if the guarantee breaks).
	shardExec bool

	// Blame counters (nil without a recorder): host-visible stall charged to
	// foreground GC, backup-program completion extension, and the two-phase
	// reprogram penalty. Prefetched in SetRecorder so the hot path never
	// touches the registry maps.
	ctrBlameGC        *obs.Counter
	ctrBlameBackup    *obs.Counter
	ctrBlameReprogram *obs.Counter
	// reprogPenalty is the extra latency of a slow (MSB) program over a fast
	// (LSB) one, charged per host MSB data write.
	reprogPenalty int64

	// Scratch buffers for the per-write payload helpers and the GC
	// valid-page scan. Safe for the same reason Buf is: the FTLs are
	// single-threaded and Device.Program copies payload and spare before
	// the next call can overwrite them.
	tok  [TokenSize]byte
	sp   [SpareSize]byte
	ppns []nand.PPN
}

// NewBase wires a Base for the device under the config.
func NewBase(dev *nand.Device, cfg Config) (*Base, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	g := dev.Geometry()
	if err := CheckCapacity(g); err != nil {
		return nil, err
	}
	logical := cfg.LogicalPages(g)
	if logical <= 0 {
		return nil, fmt.Errorf("ftl: geometry too small for over-provisioning %v", cfg.OPFraction)
	}
	b := &Base{
		Dev:           dev,
		lay:           dev.Layout(),
		Map:           NewMapper(*dev.Layout(), logical, dev),
		Cfg:           cfg,
		Budget:        newChipBudget(cfg, 1, true, true),
		reprogPenalty: int64(dev.Timing().ProgMSB - dev.Timing().ProgLSB),
	}
	b.Pools, b.full = newPools(g.Chips(), g.BlocksPerChip, g.PagesPerBlock())
	for _, p := range b.Pools {
		p.Policy = cfg.GC
	}
	b.wireVictimIndex()
	if cfg.Reliability != nil {
		if err := b.initReliability(cfg.Reliability); err != nil {
			return nil, err
		}
	}
	return b, nil
}

// wireVictimIndex binds every pool's victim index to its chip's window of
// the current mapper's valid counts and has the mapper hand each count
// change of a full block to the owning pool.
func (b *Base) wireVictimIndex() {
	g := b.Dev.Geometry()
	for c, p := range b.Pools {
		lo := b.lay.FlatOf(nand.BlockAddr{Chip: c})
		hi := lo + g.BlocksPerChip
		p.Bind(g.PagesPerBlock(), b.Map.validCount[lo:hi:hi])
	}
	b.Map.SetVictimIndex(b.Pools, b.full)
}

// SetMapper swaps in a rebuilt mapping table (flash-scan rebuild), rewiring
// the valid-count hook and reindexing every pool's victim buckets against
// the new counts.
func (b *Base) SetMapper(m *Mapper) {
	b.Map = m
	b.wireVictimIndex()
}

// SetVictimReference switches every pool between the indexed victim picker
// and the retained reference linear scan (A/B determinism tests).
func (b *Base) SetVictimReference(on bool) {
	for _, p := range b.Pools {
		p.Reference = on
	}
}

// Device returns the NAND device.
func (b *Base) Device() *nand.Device { return b.Dev }

// SetRecorder attaches an observability recorder to the FTL and its device.
// Every kernel inherits it by embedding Base and nflex forwards to it, so the
// runner can instrument any scheme uniformly.
func (b *Base) SetRecorder(r *obs.Recorder) {
	b.Obs = r
	b.Dev.SetRecorder(r)
	reg := r.Registry()
	b.ctrBlameGC = reg.Counter(obs.BlameCounterName(obs.CauseGC))
	b.ctrBlameBackup = reg.Counter(obs.BlameCounterName(obs.CauseBackup))
	b.ctrBlameReprogram = reg.Counter(obs.BlameCounterName(obs.CauseReprogram))
}

// WearSpread returns the device's wear imbalance (Max/Mean erase count; 1.0
// is perfectly even), the sampler's erase-count-spread stream.
func (b *Base) WearSpread() float64 { return b.Dev.Wear().Imbalance }

// EraseCountOf returns one block's lifetime erase count (the wear-aware
// placement's block-choice input).
func (b *Base) EraseCountOf(chip, blk int) int {
	return b.Dev.EraseCount(nand.BlockAddr{Chip: chip, Block: blk})
}

// Stats returns the counter snapshot.
func (b *Base) Stats() Stats { return b.St }

// ResetCounters zeroes the statistics (used after a warm-up/prefill phase so
// measurements cover steady state only).
func (b *Base) ResetCounters() { b.St = Stats{} }

// LogicalPages returns the host-visible page count.
func (b *Base) LogicalPages() int64 { return b.Map.LogicalPages() }

// NextChip advances the round-robin cursor for host write placement,
// wrapping at the chip count (one pool per chip).
func (b *Base) NextChip() int {
	c := b.rr
	if b.rr++; b.rr == len(b.Pools) {
		b.rr = 0
	}
	return c
}

// TokenSize is the payload size of the deterministic page tokens the FTLs
// write: 4 bytes of LPN + 8 bytes of global sequence number. Real 4 KB
// payloads carry no additional information for the simulation, so pages
// store just the token — the parity algebra is unaffected (XOR over tokens
// is XOR over the zero-padded pages). Every LPN fits the 4 bytes: a device
// has fewer than nand.MaxPages (< 2^31) pages. The page record defines the
// size (pagemem.TokenBytes), so it stores and loads this shape with
// fixed-width moves.
const TokenSize = pagemem.TokenBytes

// SpareSize is the spare area the FTLs program with a page: one page or
// block number in 4 bytes (SpareForLPN, spareForBlock), pagemem.SpareBytes.
// A token and a spare together fill the device's inline page slot
// (pagemem.InlineBytes) exactly.
const SpareSize = pagemem.SpareBytes

// Token builds the payload for a host write, advancing the sequence number.
// The returned slice is a reusable scratch buffer, valid until the next
// Token call; Device.Program copies it, so the write paths never retain it.
func (b *Base) Token(lpn LPN) []byte {
	b.seq++
	binary.LittleEndian.PutUint32(b.tok[0:4], uint32(lpn))
	binary.LittleEndian.PutUint64(b.tok[4:12], uint64(b.seq))
	return b.tok[:]
}

// Spare is the scratch-buffer variant of SpareForLPN for the per-write hot
// path; valid until the next Spare call.
func (b *Base) Spare(lpn LPN) []byte {
	binary.LittleEndian.PutUint32(b.sp[:], uint32(lpn))
	return b.sp[:]
}

// TokenLPN extracts the LPN from a token payload.
func TokenLPN(data []byte) (LPN, bool) {
	if len(data) < 4 {
		return -1, false
	}
	return LPN(binary.LittleEndian.Uint32(data[0:4])), true
}

// TokenSeq extracts the global sequence number from a token payload (0 for
// short payloads). A crash-campaign verifier compares it against the floor
// recorded per acknowledged write — see Seq.
func TokenSeq(data []byte) uint64 {
	if len(data) < TokenSize {
		return 0
	}
	return binary.LittleEndian.Uint64(data[4:12])
}

// SpareForLPN encodes the reverse-map entry programmed into a data page's
// spare area.
func SpareForLPN(lpn LPN) []byte {
	buf := make([]byte, SpareSize)
	binary.LittleEndian.PutUint32(buf, uint32(lpn))
	return buf
}

// LPNFromSpare decodes SpareForLPN.
func LPNFromSpare(spare []byte) (LPN, bool) {
	if len(spare) < SpareSize {
		return -1, false
	}
	return LPN(binary.LittleEndian.Uint32(spare)), true
}

// MappingHash fingerprints the current mapping state (see Mapper.StateHash).
func (b *Base) MappingHash() uint64 { return b.Map.StateHash() }

// Seq returns the global write sequence number of the most recently issued
// token. A crash-campaign shadow model records it per acknowledged write:
// any later copy of the same LPN (a GC relocation under retokenization)
// carries a sequence at least this high, so a read-back below the recorded
// floor exposes a stale-mapping bug.
func (b *Base) Seq() int64 { return b.seq }

// TotalFreeBlocks sums the free lists over all chips.
func (b *Base) TotalFreeBlocks() int {
	total := 0
	for _, p := range b.Pools {
		total += p.FreeCount()
	}
	return total
}

// BelowGCThreshold reports whether free space has dropped under the
// background-GC trigger (10% of total blocks by default).
func (b *Base) BelowGCThreshold() bool {
	return float64(b.TotalFreeBlocks()) < b.Cfg.GCFreeFraction*float64(b.Dev.Geometry().TotalBlocks())
}

// BGCWanted is the hysteretic background-GC condition: collection starts
// when free space drops under the trigger threshold and keeps going until a
// 1.5x cushion is rebuilt, so a single write burst cannot immediately push
// the system back into foreground reclaim.
func (b *Base) BGCWanted() bool {
	total := float64(b.Dev.Geometry().TotalBlocks())
	free := float64(b.TotalFreeBlocks())
	if free < b.Cfg.GCFreeFraction*total {
		b.hyst = true
	} else if free >= 1.5*b.Cfg.GCFreeFraction*total {
		b.hyst = false
	}
	return b.hyst
}

// AllocFunc programs one relocated page during GC using the FTL's own page
// placement policy. It must update the mapping (Mapper.Update) itself and
// must not recurse into GC — the engine guarantees a free reserve.
type AllocFunc func(chip int, lpn LPN, data, spare []byte, now sim.Time) (sim.Time, error)

// CollectVictim relocates every valid page of the victim block through
// alloc, erases it, and returns it to the chip's free pool. The victim must
// be on the chip's full list. It returns the completion time of the erase.
func (b *Base) CollectVictim(chip, victim int, now sim.Time, alloc AllocFunc) (sim.Time, error) {
	return b.collectVictim(chip, victim, now, alloc, obs.CauseGC)
}

// collectVictim is CollectVictim under an explicit attribution cause — the
// refresh scan reuses the whole collection machinery but charges its media
// work to scrub, not GC.
func (b *Base) collectVictim(chip, victim int, now sim.Time, alloc AllocFunc, cause obs.Cause) (sim.Time, error) {
	if b.shardExec {
		// The epoch planner's per-chip free margin must make foreground GC
		// unreachable inside a shard; reaching here is a planner bug, not a
		// recoverable condition.
		panic(fmt.Sprintf("ftl: GC on chip %d during shard execution", chip))
	}
	if b.inGC {
		return now, fmt.Errorf("ftl: re-entrant GC on chip %d", chip)
	}
	b.inGC = true
	prevCause := b.Dev.SetCause(cause)
	defer func() {
		b.inGC = false
		b.Dev.SetCause(prevCause)
	}()
	gcStart, copiesBefore := now, b.St.GCCopies

	addr := nand.BlockAddr{Chip: chip, Block: victim}
	b.Pools[chip].TakeFull(victim)
	// The scratch reuse is safe against the mapping updates alloc performs:
	// relocation only invalidates pages of this block after copying them,
	// never adds pages to it, and the inGC guard rules out a nested scan.
	b.ppns = b.Map.AppendValidPages(addr, b.ppns[:0])
	for _, ppn := range b.ppns {
		lpn, ok := b.Map.LPNAt(ppn)
		if !ok {
			continue // invalidated by an earlier iteration (cannot happen for distinct LPNs)
		}
		t, err := b.Dev.ReadPPN(ppn, &b.Buf, now)
		if err != nil {
			if errors.Is(err, rel.ErrUncorrectable) {
				// ECC loss mid-relocation: rebuild from parity when covered,
				// otherwise relocate a placeholder token and pin the loss at
				// the new location — the LPN stays mapped so a later host
				// read fails (detected loss), never silently vanishes.
				now = b.relocateLost(lpn, b.lay.Addr(ppn), t)
			} else {
				// Abort the collection but keep the victim on the candidate
				// list — its remaining valid pages must not be leaked.
				b.Pools[chip].PushFull(victim)
				return now, fmt.Errorf("ftl: GC read %v: %w", b.lay.Addr(ppn), err)
			}
		} else {
			now = t
		}
		now, err = alloc(chip, lpn, b.Buf.Data, b.Buf.Spare, now)
		if err != nil {
			b.Pools[chip].PushFull(victim)
			return now, fmt.Errorf("ftl: GC relocation of LPN %d: %w", lpn, err)
		}
		b.St.GCCopies++
		b.markRelocatedLoss(lpn)
	}
	b.Map.ClearBlock(addr)
	done, err := b.Dev.Erase(addr, now)
	if err != nil {
		if errors.Is(err, nand.ErrBadBlock) {
			// Worn out: the block leaves service instead of returning to
			// the free pool; capacity shrinks by one block.
			b.St.RetiredBlocks++
			b.Obs.Span(obs.KindGCCollect, int32(chip), gcStart, now, int64(victim), b.St.GCCopies-copiesBefore)
			return now, nil
		}
		return now, err
	}
	b.St.Erases++
	if !b.maybeRetire(chip, victim) {
		b.Pools[chip].PushFree(victim)
	}
	b.Obs.Span(obs.KindGCCollect, int32(chip), gcStart, done, int64(victim), b.St.GCCopies-copiesBefore)
	return done, nil
}

// EraseAndFree erases a block that is already off all lists (e.g. a retired
// backup block) and returns it to the free pool. A worn-out block retires
// silently (capacity shrinks).
func (b *Base) EraseAndFree(chip, blk int, now sim.Time) (sim.Time, error) {
	done, err := b.Dev.Erase(nand.BlockAddr{Chip: chip, Block: blk}, now)
	if err != nil {
		if errors.Is(err, nand.ErrBadBlock) {
			b.St.RetiredBlocks++
			return now, nil
		}
		return now, err
	}
	b.St.Erases++
	if !b.maybeRetire(chip, blk) {
		b.Pools[chip].PushFree(blk)
	}
	return done, nil
}

// Trim invalidates a logical page — the host discard path shared by every
// FTL. Purely a mapping operation: the freed physical page becomes a GC
// opportunity. Completion is immediate (metadata only).
func (b *Base) Trim(lpn LPN, now sim.Time) (sim.Time, error) {
	if b.Map.Invalidate(lpn) {
		b.St.HostTrims++
	}
	return now, nil
}

// ReadLPN performs the shared host-read path. A read that fails the ECC
// retry ladder is rebuilt in place from parity when the page is covered (the
// payload lands in Buf exactly as on a clean read); an unrepairable loss
// pins the page and surfaces rel.ErrUncorrectable with the real completion
// time — the host paid the full ladder before learning the data is gone.
func (b *Base) ReadLPN(lpn LPN, now sim.Time) (sim.Time, error) {
	ppn, ok := b.Map.Lookup(lpn)
	if !ok {
		// The bare sentinel: an unmapped read is an expected outcome the
		// runner drops, so it is not worth formatting (or allocating) a message.
		return now, ErrUnmapped
	}
	done, err := b.Dev.ReadPPN(ppn, &b.Buf, now)
	if err != nil {
		if errors.Is(err, rel.ErrUncorrectable) {
			addr := b.lay.Addr(ppn)
			if b.repairRead != nil {
				if t, ok := b.repairRead(b, lpn, addr, done); ok {
					b.St.ECCRebuilds++
					b.St.HostReads++
					return t, nil
				}
			}
			b.St.UncorrectableReads++
			_ = b.Dev.MarkLost(addr)
			return done, fmt.Errorf("ftl: host read of LPN %d: %w", lpn, err)
		}
		return now, err
	}
	b.St.HostReads++
	return done, nil
}
