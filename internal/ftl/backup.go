package ftl

import (
	"encoding/binary"
	"fmt"

	"flexftl/internal/core"
	"flexftl/internal/nand"
	"flexftl/internal/obs"
	"flexftl/internal/parity"
	"flexftl/internal/sim"
)

// BackupStrategy protects LSB data against the destructive paired-page MSB
// program under sudden power-off. The kernel calls afterLSB on every LSB data
// program; the two-phase order policy additionally drives the fast-block
// life-cycle hooks (onFastOpen/onFastComplete/onSlowComplete) that the
// per-block parity scheme needs. The interface is sealed — implementations
// come from NoBackupStrategy / PairParityBackup / BlockParityBackup.
type BackupStrategy interface {
	init(k *Kernel) error
	// afterLSB observes one completed LSB data program on the chip's given
	// placement stream and may emit backup programs, returning the
	// (possibly extended) completion time.
	afterLSB(k *Kernel, chip, stream int, data []byte, done sim.Time) (sim.Time, error)
	// onFastOpen fires when a two-phase fast block opens on a stream.
	onFastOpen(k *Kernel, chip, stream int)
	// onFastComplete fires when a two-phase fast block fills (all LSB pages
	// written); the per-block parity scheme persists the accumulated parity
	// of that stream's block.
	onFastComplete(k *Kernel, chip, stream, fastBlk int, done sim.Time) (sim.Time, error)
	// onSlowComplete fires when a two-phase slow block finishes its MSB
	// phase, retiring any backup that protected it.
	onSlowComplete(k *Kernel, chip, blk int)
	// coversMSB reports whether the strategy's pre-backup makes a paired-page
	// MSB program power-safe at issue time: the pair parity is persisted
	// before the MSB program begins (the footnote-4 bound), so the order
	// policy may acknowledge the destructive window immediately. Strategies
	// returning false leave the window open until their own recovery story
	// (or nothing, for NoBackupStrategy) takes over.
	coversMSB() bool
	// shardPops bounds, from the chip's current backup-block state, the free
	// blocks the strategy can pop while the order policy serves lsbWrites
	// LSB data programs and completes fills fast blocks (the epoch planner's
	// R5 input; lsbWrites is an upper bound on the actual LSB share).
	shardPops(k *Kernel, chip, lsbWrites, fills int) int
}

// NoBackupStrategy returns the empty strategy: no pre-backup at all, the
// paper's no-sudden-power-off baseline (pageFTL).
func NoBackupStrategy() BackupStrategy { return noBackup{} }

type noBackup struct{}

func (noBackup) init(*Kernel) error { return nil }
func (noBackup) afterLSB(k *Kernel, chip, stream int, data []byte, done sim.Time) (sim.Time, error) {
	return done, nil
}
func (noBackup) onFastOpen(*Kernel, int, int) {}
func (noBackup) onFastComplete(k *Kernel, chip, stream, fastBlk int, done sim.Time) (sim.Time, error) {
	return done, nil
}
func (noBackup) onSlowComplete(*Kernel, int, int) {}
func (noBackup) coversMSB() bool                  { return false }
func (noBackup) shardPops(*Kernel, int, int, int) int {
	return 0
}

// PairParityBackup returns the adaptive paired-page pre-backup of Lee et al.
// (TCAD 2014): under FPS at most pairSize LSB pages can share one parity
// backup page before their paired MSB pages are programmed, so every
// pairSize-th LSB program emits one parity page to a per-chip backup block
// (parityFTL and rtfFTL use pairSize 2, the paper's footnote 4 bound). The
// ring can claim a free block at any moment; the budget's Reclaim level
// (Base.Budget) counts one for it.
func PairParityBackup(pairSize int) BackupStrategy {
	return &pairParity{pairSize: pairSize}
}

type pairParity struct {
	pairSize int
	order    []core.Page
	ring     []backupRing    // per chip
	pbuf     []parity.Buffer // per chip: parity of the LSB pair in flight
}

// backupRing is a two-deep rotation of backup blocks: parity pages go to the
// current block; when it fills, the previous one (whose parities have long
// been superseded by completed MSB programs) is erased and freed.
type backupRing struct {
	cur  int // -1 when none
	pos  int
	prev int // -1 when none
}

func (b *pairParity) init(k *Kernel) error {
	if b.pairSize < 1 {
		return fmt.Errorf("ftl: parity pair size %d < 1", b.pairSize)
	}
	if k.streams != 1 {
		// The pair accumulator assumes LSB programs arrive in one global
		// per-chip order; interleaved streams would pair LSBs whose MSB
		// windows open at unrelated times, voiding the footnote-4 bound.
		return fmt.Errorf("%s: pair-parity backup requires the single-stream placement", k.name)
	}
	g := k.Dev.Geometry()
	b.order = core.FPSOrder(g.WordLinesPerBlock)
	b.ring = make([]backupRing, g.Chips())
	// Pages carry TokenSize-byte payloads; the parity accumulators only
	// need that width.
	b.pbuf = parity.NewSet(g.Chips(), TokenSize)
	for c := range b.ring {
		b.ring[c] = backupRing{cur: -1, prev: -1}
	}
	return nil
}

func (b *pairParity) afterLSB(k *Kernel, chip, stream int, data []byte, done sim.Time) (sim.Time, error) {
	// Accumulate the pre-backup parity; every pairSize LSB pages emit one
	// parity page before their paired MSB programs begin.
	if err := b.pbuf[chip].Add(data); err != nil {
		return done, err
	}
	if b.pbuf[chip].Count() >= b.pairSize {
		var err error
		done, err = b.writeBackup(k, chip, b.pbuf[chip].Bytes(), done)
		if err != nil {
			return done, err
		}
		b.pbuf[chip].Reset()
	}
	return done, nil
}

// writeBackup programs one parity page into the chip's backup ring, rotating
// blocks as they fill.
func (b *pairParity) writeBackup(k *Kernel, chip int, page []byte, now sim.Time) (sim.Time, error) {
	ring := &b.ring[chip]
	if ring.cur == -1 {
		blk, ok := k.Pools[chip].PopFree()
		if !ok {
			return now, fmt.Errorf("%s: chip %d has no free block for backups", k.name, chip)
		}
		ring.cur, ring.pos = blk, 0
	}
	addr := nand.PageAddr{
		BlockAddr: nand.BlockAddr{Chip: chip, Block: ring.cur},
		Page:      b.order[ring.pos],
	}
	done, err := k.Dev.Program(addr, page, nil, now)
	if err != nil {
		return now, err
	}
	if addr.Page.Type == core.MSB {
		// A backup-ring MSB program is power-safe at issue: a cut here can
		// only destroy backup pages (the chip has one destructive window,
		// so every data page survives), and a parity page is needed only
		// when a data LSB it covers is destroyed — which the same cut
		// cannot also do. Without this ack the ring would leave windows
		// dangling that no recovery path ever closes.
		k.Dev.AckProgram(addr.BlockAddr)
	}
	k.St.BackupWrites++
	k.Obs.Instant(obs.KindBackup, int32(chip), now, int64(ring.cur), int64(ring.pos))
	ring.pos++
	if ring.pos == len(b.order) {
		// Rotate: recycle the previous backup block. Its newest parity is
		// a full backup-block's worth of word lines old, far beyond the
		// FPS paired-MSB window, so everything in it is stale.
		if ring.prev != -1 {
			done, err = k.EraseAndFree(chip, ring.prev, done)
			if err != nil {
				return done, err
			}
		}
		ring.prev, ring.cur = ring.cur, -1
	}
	return done, nil
}

func (b *pairParity) onFastOpen(*Kernel, int, int) {}
func (b *pairParity) onFastComplete(k *Kernel, chip, stream, fastBlk int, done sim.Time) (sim.Time, error) {
	return done, nil
}
func (b *pairParity) onSlowComplete(*Kernel, int, int) {}

// coversMSB: the pair's parity page is persisted before the paired MSB
// program starts (afterLSB emits it every pairSize LSBs, the footnote-4
// bound), so the destructive window is power-safe at issue time.
func (b *pairParity) coversMSB() bool { return true }

// shardPops: lsbWrites LSB programs emit at most (pending+lsbWrites)/pairSize
// parity pages; the current backup block absorbs its remaining capacity, and
// each further block's worth of emissions pops one ring block.
func (b *pairParity) shardPops(k *Kernel, chip, lsbWrites, fills int) int {
	if lsbWrites <= 0 {
		return 0
	}
	emissions := (b.pbuf[chip].Count() + lsbWrites) / b.pairSize
	if emissions == 0 {
		return 0
	}
	room := 0
	if ring := &b.ring[chip]; ring.cur != -1 {
		room = len(b.order) - ring.pos
	}
	if emissions <= room {
		return 0
	}
	return 1 + (emissions-room-1)/len(b.order)
}

// BlockParityBackup returns the paper's per-block parity scheme (Section
// 3.3): one XOR parity page protects all LSB pages of a two-phase fast
// block, written once when the fast block fills, invalidated when its slow
// phase completes. It requires the two-phase order policy. Its backup
// blocks come from the chip's free pool, where the budget's Emergency level
// (Base.Budget) keeps one for it.
func BlockParityBackup() BackupStrategy { return &blockParity{} }

// parityRef locates the parity backup page protecting a fast block.
type parityRef struct {
	backupBlk int // in-chip block index of the backup block
	page      int // LSB word-line index within the backup block
}

// RetiredBackup records one retired parity backup block together with how
// many parity pages were actually written into it. Blocks normally retire
// full, but a crash-time seal (RebuildParityRefs) retires the current block
// at whatever fill it reached; recovery scans must not read past the fill —
// phantom reads of never-programmed pages would inflate PagesRead and the
// reboot-time estimate for no information.
type RetiredBackup struct {
	Block int
	Fill  int // programmed LSB parity pages: word lines [0, Fill)
}

// backupState manages a chip's parity backup blocks: parity pages are
// written to LSB pages only (footnote 2 of the paper — legal under RPS),
// and a backup block is recycled once every parity page in it has been
// invalidated by its slow block completing.
type backupState struct {
	cur     int             // current backup block, -1 when none
	pos     int             // next LSB word line in cur
	live    []int32         // in-chip backup block -> count of still-needed parity pages
	retired []RetiredBackup // filled (or sealed) backup blocks awaiting live==0
}

type blockParity struct {
	// pbuf accumulates each stream's open fast block's LSB parity,
	// [chip][stream] — streams fill fast blocks independently, so each needs
	// its own accumulator. The backup blocks themselves (backupState) stay
	// per chip: parity pages from all streams share one backup block.
	pbuf   [][]parity.Buffer
	backup []backupState // per chip
	// refs maps flat fast-block index -> parity location, as a flat slice
	// (backupBlk -1 = none) so channel shards of one run can write disjoint
	// chip-owned entries without sharing a map's internals.
	refs []parityRef
}

func (b *blockParity) init(k *Kernel) error {
	// Every chip's piece is a window of one device-wide allocation.
	g := k.Dev.Geometry()
	chips, streams, blocks := g.Chips(), k.streams, g.BlocksPerChip
	bufs, live := parity.NewSet(chips*streams, TokenSize), make([]int32, chips*blocks)
	b.pbuf = make([][]parity.Buffer, chips)
	b.backup = make([]backupState, chips)
	b.resetRefs(g.TotalBlocks())
	for c := range b.backup {
		b.pbuf[c] = bufs[c*streams : (c+1)*streams : (c+1)*streams]
		b.backup[c] = backupState{cur: -1, live: live[c*blocks : (c+1)*blocks : (c+1)*blocks]}
	}
	return nil
}

// resetRefs clears the parity-ref table to "no parity" for every block.
func (b *blockParity) resetRefs(blocks int) {
	if len(b.refs) != blocks {
		b.refs = make([]parityRef, blocks)
	}
	for i := range b.refs {
		b.refs[i] = parityRef{backupBlk: -1}
	}
}

// refLive counts blocks with a live parity reference.
func (b *blockParity) refLive() int {
	n := 0
	for i := range b.refs {
		if b.refs[i].backupBlk != -1 {
			n++
		}
	}
	return n
}

func (b *blockParity) afterLSB(k *Kernel, chip, stream int, data []byte, done sim.Time) (sim.Time, error) {
	if err := b.pbuf[chip][stream].Add(data); err != nil {
		return done, err
	}
	return done, nil
}

func (b *blockParity) onFastOpen(k *Kernel, chip, stream int) { b.pbuf[chip][stream].Reset() }

func (b *blockParity) onFastComplete(k *Kernel, chip, stream, fastBlk int, done sim.Time) (sim.Time, error) {
	pb := &b.pbuf[chip][stream]
	done, err := b.writeBlockParity(k, chip, fastBlk, pb.Bytes(), done)
	pb.Reset()
	return done, err
}

// writeBlockParity programs the accumulated parity page of a completed fast
// block into the chip's backup block, on an LSB page, with the protected
// block's number in the spare area (Figure 7(a)).
func (b *blockParity) writeBlockParity(k *Kernel, chip, fastBlk int, parityPage []byte, now sim.Time) (sim.Time, error) {
	bk := &b.backup[chip]
	if bk.cur == -1 {
		blk, ok := k.Pools[chip].PopFree()
		if !ok {
			return now, fmt.Errorf("%s: chip %d has no free block for parity backups", k.name, chip)
		}
		bk.cur, bk.pos = blk, 0
	}
	addr := nand.PageAddr{
		BlockAddr: nand.BlockAddr{Chip: chip, Block: bk.cur},
		Page:      core.Page{WL: bk.pos, Type: core.LSB},
	}
	done, err := k.Dev.Program(addr, parityPage, spareForBlock(fastBlk), now)
	if err != nil {
		return now, err
	}
	k.St.BackupWrites++
	k.Obs.Instant(obs.KindBackup, int32(chip), now, int64(fastBlk), int64(bk.cur))
	b.refs[k.Map.FlatBlock(nand.BlockAddr{Chip: chip, Block: fastBlk})] = parityRef{
		backupBlk: bk.cur,
		page:      bk.pos,
	}
	bk.live[bk.cur]++
	bk.pos++
	if bk.pos == k.wordLines {
		// All LSB pages of the backup block used: retire it. It is erased
		// once every parity in it is invalidated.
		bk.retired = append(bk.retired, RetiredBackup{Block: bk.cur, Fill: bk.pos})
		bk.cur = -1
	}
	return done, nil
}

// onSlowComplete marks the parity page of a completed slow block stale and
// recycles retired backup blocks that no longer protect anything. Recycling
// happens lazily at the next opportunity the chip timeline offers (the
// caller's completion time is not extended — erase cost is charged through
// EraseAndFree at the chip-ready time after the MSB program that freed it).
func (b *blockParity) onSlowComplete(k *Kernel, chip, blk int) {
	flat := k.Map.FlatBlock(nand.BlockAddr{Chip: chip, Block: blk})
	ref := b.refs[flat]
	if ref.backupBlk == -1 {
		return
	}
	b.refs[flat] = parityRef{backupBlk: -1}
	b.backup[chip].live[ref.backupBlk]--
	b.recycleRetired(k, chip)
}

// recycleRetired erases retired backup blocks whose parities are all stale.
// The device serializes the erase after current chip work.
func (b *blockParity) recycleRetired(k *Kernel, chip int) {
	bk := &b.backup[chip]
	kept := bk.retired[:0]
	for _, r := range bk.retired {
		if bk.live[r.Block] == 0 {
			if _, err := k.EraseAndFree(chip, r.Block, k.Dev.ChipReadyAt(chip)); err != nil {
				// An erase failure here means a retired-block accounting
				// bug; surface it loudly in tests.
				panic(fmt.Sprintf("%s: recycling backup block %d on chip %d: %v", k.name, r.Block, chip, err))
			}
			continue
		}
		kept = append(kept, r)
	}
	bk.retired = kept
}

// backupBlockSet returns the chip's backup blocks (current + retired) —
// the superblock metadata a real FTL persists.
func (b *blockParity) backupBlockSet(chip int) map[int]bool {
	set := make(map[int]bool)
	bk := &b.backup[chip]
	if bk.cur != -1 {
		set[bk.cur] = true
	}
	for _, r := range bk.retired {
		set[r.Block] = true
	}
	return set
}

// coversMSB: per-block parity protects LSB pages only; the destructive
// window of each MSB program stays open until its slow block completes
// (recover2po.go reconstructs the pair after a crash).
func (b *blockParity) coversMSB() bool { return false }

// shardPops: one parity page per completed fast block; the current backup
// block absorbs its remaining LSB capacity, and each further word-lines'
// worth of parities pops one backup block.
func (b *blockParity) shardPops(k *Kernel, chip, lsbWrites, fills int) int {
	if fills <= 0 {
		return 0
	}
	wl := k.wordLines
	room := 0
	if bk := &b.backup[chip]; bk.cur != -1 {
		room = wl - bk.pos
	}
	if fills <= room {
		return 0
	}
	return 1 + (fills-room-1)/wl
}

// spareForBlock encodes the inverse mapping (backup page -> protected block)
// stored in the parity page's spare area.
func spareForBlock(blk int) []byte {
	buf := make([]byte, SpareSize)
	binary.LittleEndian.PutUint32(buf, uint32(blk))
	return buf
}

// blockFromSpare decodes spareForBlock.
func blockFromSpare(spare []byte) (int, bool) {
	if len(spare) < SpareSize {
		return -1, false
	}
	return int(binary.LittleEndian.Uint32(spare)), true
}
