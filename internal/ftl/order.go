package ftl

import (
	"fmt"

	"flexftl/internal/core"
	"flexftl/internal/nand"
	"flexftl/internal/obs"
	"flexftl/internal/sim"
)

// OrderPolicy owns page ordering: which page of a stream's active block each
// program lands on, the block life cycle around it (free pool -> active ->
// full), foreground reclaim, and any order-specific idle work. Which stream
// a program rides — and which free block opens a stream's next active block —
// belongs to the PlacementPolicy; single-stream order policies may reject a
// multi-stream placement at init. The interface is sealed — implementations
// come from FPSOrderPolicy / FPSPoolOrderPolicy / TwoPhaseOrderPolicy.
type OrderPolicy interface {
	init(k *Kernel) error
	// program writes one data page on the chip's given placement stream
	// under the policy's order, honoring pref where the order leaves a
	// choice.
	program(k *Kernel, chip, stream int, pref Pref, lpn LPN, data, spare []byte, now sim.Time, fromGC bool) (sim.Time, error)
	// foregroundGC reclaims blocks inline until the chip can absorb the
	// next program without stalling; at or above the budget's Quiet level
	// it collects nothing.
	foregroundGC(k *Kernel, chip int, now sim.Time) (sim.Time, error)
	// idleDrain runs order-specific idle work after background GC (the
	// return-to-fast MSB drain; a no-op for the others).
	idleDrain(k *Kernel, now, until sim.Time)
	// fastBudget is how many LSB pages the chip can still serve without
	// eating into the budget's Spare level (adaptive allocation input).
	fastBudget(k *Kernel, chip int) int
	// slowAvailable reports whether an MSB page can be programmed at all.
	slowAvailable(k *Kernel, chip int) bool
	// shardWriteImpact bounds, from the chip's current cursor state, the free
	// blocks w host writes can pop and the data blocks they can complete
	// (fills drive the per-block backup strategies' own pops), under the
	// worst-case routing of the writes across placement streams.
	shardWriteImpact(k *Kernel, chip, w int) (pops, fills int)
	// shardWriteImpactMin is shardWriteImpact's best-case-routing
	// counterpart: the fewest pops/fills *some* stream routing of the w
	// writes could cause. The planner uses the gap between the two to
	// attribute a failed headroom check to placement uncertainty (Rp)
	// rather than true GC proximity (R5). Single-stream policies have no
	// routing freedom, so both bounds coincide.
	shardWriteImpactMin(k *Kernel, chip, w int) (pops, fills int)
}

// cursor tracks one active block's program position.
type cursor struct {
	blk int // -1 when no active block
	pos int
	lsb bool // the page at pos is an LSB page (kept by the pool order only)
}

// newCursors returns n cursors per chip, every chip's slice carved from one
// array.
func newCursors(chips, n int) [][]cursor {
	all := make([]cursor, chips*n)
	out := make([][]cursor, chips)
	for c := range out {
		out[c] = all[c*n : (c+1)*n : (c+1)*n]
	}
	return out
}

// worstCaseUnits bounds how many unit events (free-block pops or block
// fills) w same-type writes can force across placement streams, where
// stream i's first event costs firstCosts[i] writes and every further event
// on any stream costs ppb writes (a fresh block's full page count). The
// adversary routes writes to trigger events as cheaply as possible: for m
// streams engaged it pays the m smallest first-event costs, then buys extra
// events at ppb apiece; the maximum over m is the bound. With one stream
// this is exactly the pre-placement-axis arithmetic: ceil((w-slack)/ppb)
// pops and (w+pos)/ppb fills.
func worstCaseUnits(firstCosts []int, w, ppb int) int {
	// Insertion sort: stream counts are tiny (1–2).
	for i := 1; i < len(firstCosts); i++ {
		for j := i; j > 0 && firstCosts[j] < firstCosts[j-1]; j-- {
			firstCosts[j], firstCosts[j-1] = firstCosts[j-1], firstCosts[j]
		}
	}
	best, spent := 0, 0
	for m := 1; m <= len(firstCosts); m++ {
		spent += firstCosts[m-1]
		if spent > w {
			break
		}
		if got := m + (w-spent)/ppb; got > best {
			best = got
		}
	}
	return best
}

// FPSOrderPolicy returns the strict fixed-program-sequence order: one active
// block per chip stream, pages written in the vendor FPS order (pageFTL and
// parityFTL). Pref is ignored — FPS leaves no choice.
func FPSOrderPolicy() OrderPolicy { return &fpsSingle{} }

type fpsSingle struct {
	order  []core.Page // the canonical FPS order, shared by every block
	active [][]cursor  // [chip][stream]

	// impactScratch backs shardWriteImpact's first-cost accumulation. Only
	// the serial epoch planner calls it, so a single scratch is race-free
	// even though the policy object is shared with the shard clones.
	impactScratch []int
}

func (o *fpsSingle) init(k *Kernel) error {
	g := k.Dev.Geometry()
	o.order = core.FPSOrder(g.WordLinesPerBlock)
	o.active = newCursors(g.Chips(), k.streams)
	for _, cs := range o.active {
		for s := range cs {
			cs[s].blk = -1
		}
	}
	return nil
}

func (o *fpsSingle) program(k *Kernel, chip, stream int, pref Pref, lpn LPN, data, spare []byte, now sim.Time, fromGC bool) (sim.Time, error) {
	cur := &o.active[chip][stream]
	if cur.blk == -1 {
		blk, ok := k.placement.pickFree(k, chip, stream)
		if !ok {
			return now, fmt.Errorf("%s: chip %d out of free blocks", k.name, chip)
		}
		cur.blk, cur.pos = blk, 0
	}
	page := o.order[cur.pos]
	ppn := k.lay.PPNOf(nand.PageAddr{BlockAddr: nand.BlockAddr{Chip: chip, Block: cur.blk}, Page: page})
	done, err := k.Dev.ProgramPPN(ppn, data, spare, now)
	if err != nil {
		return now, err
	}
	k.Map.Update(lpn, ppn)
	if page.Type == core.LSB {
		k.noteData(true, fromGC)
		done, err = k.backupAfterLSB(chip, stream, data, done)
		if err != nil {
			return done, err
		}
	} else {
		if k.bk.coversMSB() {
			// The pair's parity pre-backup is already on flash, so the
			// destructive window is power-safe at issue time.
			k.Dev.AckProgram(nand.BlockAddr{Chip: chip, Block: cur.blk})
		}
		k.noteData(false, fromGC)
	}
	k.alloc.onProgram(k, page.Type == core.LSB, fromGC)
	cur.pos++
	if cur.pos == len(o.order) {
		k.Pools[chip].PushFull(cur.blk)
		cur.blk = -1
	}
	return done, nil
}

func (o *fpsSingle) foregroundGC(k *Kernel, chip int, now sim.Time) (sim.Time, error) {
	return k.reserveGC(chip, now)
}

func (o *fpsSingle) idleDrain(*Kernel, sim.Time, sim.Time) {}

func (o *fpsSingle) fastBudget(k *Kernel, chip int) int {
	budget := 0
	for _, cur := range o.active[chip] {
		if cur.blk != -1 && o.order[cur.pos].Type == core.LSB {
			budget++
		}
	}
	return budget + k.spareBlocks(chip)
}

func (o *fpsSingle) slowAvailable(k *Kernel, chip int) bool {
	for _, cur := range o.active[chip] {
		if cur.blk != -1 && o.order[cur.pos].Type == core.MSB {
			return true
		}
	}
	return false
}

func (o *fpsSingle) shardWriteImpact(k *Kernel, chip, w int) (pops, fills int) {
	ppb := len(o.order)
	costs := o.impactScratch[:0]
	// First-pop costs: writing a stream's remaining slack fills its block
	// and the next write pops (slack 0 for a streams with no active block).
	for _, cur := range o.active[chip] {
		slack := 0
		if cur.blk != -1 {
			slack = ppb - cur.pos
		}
		costs = append(costs, slack+1)
	}
	pops = worstCaseUnits(costs, w, ppb)
	// First-fill costs: a stream's open block completes after its remaining
	// pages (a fresh stream needs a whole block's worth).
	costs = costs[:0]
	for _, cur := range o.active[chip] {
		fc := ppb
		if cur.blk != -1 {
			fc = ppb - cur.pos
		}
		costs = append(costs, fc)
	}
	fills = worstCaseUnits(costs, w, ppb)
	o.impactScratch = costs
	return pops, fills
}

// shardWriteImpactMin: best-case routing spreads writes over the pooled
// slack of every stream before any pop, and completes no block at all
// (fills 0) by round-robining below each block's capacity.
func (o *fpsSingle) shardWriteImpactMin(k *Kernel, chip, w int) (pops, fills int) {
	if len(o.active[chip]) == 1 {
		return o.shardWriteImpact(k, chip, w)
	}
	ppb := len(o.order)
	slack := 0
	for _, cur := range o.active[chip] {
		if cur.blk != -1 {
			slack += ppb - cur.pos
		}
	}
	if w > slack {
		pops = (w - slack + ppb - 1) / ppb
	}
	return pops, 0
}

// FPSPoolOrderPolicy returns the return-to-fast order modeled on Grupp et
// al.'s Harey Tortoise: each chip keeps a pool of slots active blocks under
// FPS so successive writes can land on fast LSB pages, and the idle drain
// aggressively consumes paired MSB pages so the pool "returns to fast"
// (rtfFTL uses 8 slots). The pool is itself a placement mechanism (slots are
// picked by fill level, not by stream), so it requires the single-stream
// placement.
func FPSPoolOrderPolicy(slots int) OrderPolicy { return &fpsPool{slots: slots} }

type fpsPool struct {
	slots  int
	order  []core.Page
	active [][]cursor // [chip][slot]; blk -1 when the slot awaits a block
	empty  []int      // [chip]: slots awaiting a block

	// impactScratch backs shardWriteImpact's remaining-page sort. Only the
	// serial epoch planner calls it, so a single scratch is race-free even
	// though the policy object is shared with the shard clones.
	impactScratch []int
}

func (o *fpsPool) init(k *Kernel) error {
	g := k.Dev.Geometry()
	if o.slots < 1 {
		return fmt.Errorf("%s: active pool needs at least one slot", k.name)
	}
	if k.streams != 1 {
		return fmt.Errorf("%s: the FPS-pool order routes by slot fill, not stream; it needs the single-stream placement", k.name)
	}
	if g.BlocksPerChip < o.slots+k.Budget.Refill+2 {
		return fmt.Errorf("%s: %d blocks/chip too few for %d active blocks",
			k.name, g.BlocksPerChip, o.slots)
	}
	o.order = core.FPSOrder(g.WordLinesPerBlock)
	o.active = newCursors(g.Chips(), o.slots)
	o.empty = make([]int, g.Chips())
	for c := range o.active {
		o.empty[c] = o.slots
		for s := range o.active[c] {
			blk, ok := k.Pools[c].PopFree()
			if !ok {
				return fmt.Errorf("%s: chip %d cannot seed active pool", k.name, c)
			}
			o.open(c, s, blk)
		}
	}
	return nil
}

// open starts an empty slot on a fresh block.
func (o *fpsPool) open(chip, slot, blk int) {
	o.active[chip][slot] = cursor{blk: blk, lsb: o.order[0].Type == core.LSB}
	o.empty[chip]--
}

// advance moves a slot past the page just programmed; a full block goes to
// the full pool and empties the slot.
func (o *fpsPool) advance(k *Kernel, chip int, cur *cursor) {
	cur.pos++
	if cur.pos == len(o.order) {
		k.Pools[chip].PushFull(cur.blk)
		cur.blk = -1
		o.empty[chip]++
		return
	}
	cur.lsb = o.order[cur.pos].Type == core.LSB
}

// pickSlot returns the index of the most-filled slot whose next page matches
// wantLSB, or -1 if none. Concentrating writes in the fullest block keeps
// data of similar age together (near-pageFTL victim quality); the pool's
// breadth exists for LSB availability, not for striping.
func (o *fpsPool) pickSlot(chip int, wantLSB bool) int {
	best, bestPos := -1, -1
	for s, cur := range o.active[chip] {
		if cur.blk == -1 {
			continue
		}
		if cur.lsb == wantLSB && cur.pos > bestPos {
			best, bestPos = s, cur.pos
		}
	}
	return best
}

func (o *fpsPool) program(k *Kernel, chip, stream int, pref Pref, lpn LPN, data, spare []byte, now sim.Time, fromGC bool) (sim.Time, error) {
	var err error
	now, err = o.refillSlots(k, chip, now)
	if err != nil {
		return now, err
	}
	wantLSB := pref != PrefSlow
	slot := o.pickSlot(chip, wantLSB)
	if slot == -1 {
		slot = o.pickSlot(chip, !wantLSB)
	}
	if slot == -1 {
		return now, fmt.Errorf("%s: chip %d has no programmable active block", k.name, chip)
	}
	cur := &o.active[chip][slot]
	page := o.order[cur.pos]

	addr := nand.PageAddr{BlockAddr: nand.BlockAddr{Chip: chip, Block: cur.blk}, Page: page}
	ppn := k.lay.PPNOf(addr)
	done, err := k.Dev.ProgramPPN(ppn, data, spare, now)
	if err != nil {
		return now, err
	}
	k.Map.Update(lpn, ppn)
	if page.Type == core.LSB {
		k.noteData(true, fromGC)
		done, err = k.backupAfterLSB(chip, stream, data, done)
		if err != nil {
			return done, err
		}
	} else {
		if k.bk.coversMSB() {
			k.Dev.AckProgram(addr.BlockAddr) // parity pre-backup covers the pair
		}
		k.noteData(false, fromGC)
	}
	k.alloc.onProgram(k, page.Type == core.LSB, fromGC)
	o.advance(k, chip, cur)
	return done, nil
}

// refillSlots tops up empty active slots from the free pool while it holds
// more than the budget's Refill level; with the pool at that level it still
// force-refills one slot so a program is always possible.
func (o *fpsPool) refillSlots(k *Kernel, chip int, now sim.Time) (sim.Time, error) {
	if o.empty[chip] == 0 {
		return now, nil
	}
	for s := range o.active[chip] {
		if o.active[chip][s].blk != -1 {
			continue
		}
		if k.Pools[chip].FreeCount() <= k.Budget.Refill {
			break // run with a shallower pool until GC frees blocks
		}
		blk, ok := k.Pools[chip].PopFree()
		if !ok {
			break
		}
		o.open(chip, s, blk)
	}
	// At least one slot must be usable.
	if o.empty[chip] < o.slots {
		return now, nil
	}
	blk, ok := k.Pools[chip].PopFree()
	if !ok {
		return now, fmt.Errorf("%s: chip %d active pool empty and no free blocks", k.name, chip)
	}
	o.open(chip, 0, blk)
	return now, nil
}

// padOneMSB programs the first MSB-next slot with a dummy payload purely to
// advance its cursor back to an LSB page. The padded page is born invalid —
// capacity traded for burst readiness, the return-to-fast lifetime weakness.
func (o *fpsPool) padOneMSB(k *Kernel, chip int, now sim.Time) (sim.Time, error) {
	slot := o.pickSlot(chip, false)
	if slot == -1 {
		return now, nil
	}
	cur := &o.active[chip][slot]
	page := o.order[cur.pos]
	addr := nand.PageAddr{BlockAddr: nand.BlockAddr{Chip: chip, Block: cur.blk}, Page: page}
	prevCause := k.Dev.SetCause(obs.CausePad)
	done, err := k.Dev.Program(addr, nil, nil, now)
	k.Dev.SetCause(prevCause)
	if err != nil {
		return now, err
	}
	// A padded MSB pairs with a real LSB page, so the destructive window is
	// only safe to close when the backup covers the pair.
	if k.bk.coversMSB() {
		k.Dev.AckProgram(addr.BlockAddr)
	}
	k.St.PadWrites++
	k.Obs.Instant(obs.KindPad, int32(chip), now, int64(cur.blk), int64(page.WL))
	o.advance(k, chip, cur)
	return done, nil
}

func (o *fpsPool) foregroundGC(k *Kernel, chip int, now sim.Time) (sim.Time, error) {
	return k.reserveGC(chip, now)
}

// lsbReadyCount counts active slots whose next page is an LSB page.
func (o *fpsPool) lsbReadyCount(chip int) int {
	n := 0
	for _, cur := range o.active[chip] {
		if cur.blk != -1 && cur.lsb {
			n++
		}
	}
	return n
}

// chipHasMSBNext reports whether the chip's active pool has a slot waiting
// on an MSB page.
func (o *fpsPool) chipHasMSBNext(chip int) bool {
	for _, cur := range o.active[chip] {
		if cur.blk != -1 && !cur.lsb {
			return true
		}
	}
	return false
}

// idleDrain aggressively consumes pending paired MSB pages so subsequent
// bursts land on fast LSB pages again — the return-to-fast drain.
func (o *fpsPool) idleDrain(k *Kernel, now, until sim.Time) {
	// The drain is idle relocation work: charge its media occupancy to GC
	// (pads inside override to CausePad themselves).
	prevCause := k.Dev.SetCause(obs.CauseGC)
	defer k.Dev.SetCause(prevCause)
	for chip := range o.active {
		var err error
		now, err = o.drainMSBSlots(k, chip, now, until)
		if err != nil {
			return
		}
	}
}

// drainMSBSlots relocates valid pages from GC candidates into the chip's
// MSB-next slots, one page at a time, until the pool is ready for a burst or
// the idle window closes. When no relocation source exists, slots are padded
// with dummy MSB programs, but only up to a minimal burst readiness — padding
// burns capacity, so full return-to-fast is reserved for relocation-backed
// drains.
func (o *fpsPool) drainMSBSlots(k *Kernel, chip int, now, until sim.Time) (sim.Time, error) {
	t := k.Dev.Timing()
	perPage := t.Read + 2*t.BusXfer + t.ProgMSB + t.ProgLSB // copy + possible backup
	for now+perPage <= until && o.chipHasMSBNext(chip) {
		victim, ok := k.Pools[chip].PickVictim()
		if !ok {
			// No relocation source: pad only down to a minimal burst
			// readiness of two LSB-ready slots — wholesale padding would
			// waste capacity out of proportion to the bursts it serves.
			if o.lsbReadyCount(chip) >= 2 {
				return now, nil
			}
			var err error
			now, err = o.padOneMSB(k, chip, now)
			if err != nil {
				return now, err
			}
			continue
		}
		ppn, hasValid := k.Map.FirstValidPage(nand.BlockAddr{Chip: chip, Block: victim})
		if !hasValid {
			// Fully invalid block: erase it instead; that is pure gain.
			k.Pools[chip].TakeFull(victim)
			k.Map.ClearBlock(nand.BlockAddr{Chip: chip, Block: victim})
			done, err := k.Dev.Erase(nand.BlockAddr{Chip: chip, Block: victim}, now)
			if err != nil {
				return now, err
			}
			k.St.Erases++
			if !k.maybeRetire(chip, victim) {
				k.Pools[chip].PushFree(victim)
			}
			now = done
			continue
		}
		lpn, ok := k.Map.LPNAt(ppn)
		if !ok {
			return now, nil
		}
		tRead, err := k.Dev.ReadPPN(ppn, &k.Buf, now)
		if err != nil {
			return now, err
		}
		done, err := o.program(k, chip, 0, PrefSlow, lpn, k.Buf.Data, k.Buf.Spare, tRead, true)
		if err != nil {
			return now, err
		}
		k.St.GCCopies++
		now = done
	}
	return now, nil
}

func (o *fpsPool) fastBudget(k *Kernel, chip int) int {
	return o.lsbReadyCount(chip) + k.spareBlocks(chip)
}

func (o *fpsPool) slowAvailable(k *Kernel, chip int) bool { return o.chipHasMSBNext(chip) }

// shardWriteImpact for the pool order: empty slots each refill with one pop
// at the next program; filled slots complete after their remaining pages,
// and every completion triggers at most one refill pop. Packing writes into
// the fullest slots first matches pickSlot's actual preference, so the fill
// count is a true upper bound regardless of the LSB/MSB interleaving.
func (o *fpsPool) shardWriteImpact(k *Kernel, chip, w int) (pops, fills int) {
	ppb := len(o.order)
	empty := 0
	rems := o.impactScratch[:0]
	for _, cur := range o.active[chip] {
		if cur.blk == -1 {
			empty++
			continue
		}
		rems = append(rems, ppb-cur.pos)
	}
	o.impactScratch = rems
	// Ascending remaining-page order = fullest-first completion order.
	for i := 1; i < len(rems); i++ {
		for j := i; j > 0 && rems[j] < rems[j-1]; j-- {
			rems[j], rems[j-1] = rems[j-1], rems[j]
		}
	}
	left := w
	for _, rem := range rems {
		if left < rem {
			left = 0
			break
		}
		fills++
		left -= rem
	}
	fills += left / ppb
	pops = empty + fills
	return pops, fills
}

// shardWriteImpactMin: the pool order is single-stream (enforced at init),
// so placement has no routing freedom and both bounds coincide.
func (o *fpsPool) shardWriteImpactMin(k *Kernel, chip, w int) (pops, fills int) {
	return o.shardWriteImpact(k, chip, w)
}

// TwoPhaseOrderPolicy returns the paper's 2PO block life cycle (Figure 6):
// each block is first filled with LSB pages only (a "fast block"), then with
// MSB pages only (a "slow block") — the RPSfull order of Figure 3(a). Free
// pool -> one active fast block per chip stream -> slow block queue (FIFO)
// -> one active slow block per chip stream -> full pool. Requires an RPS
// device.
func TwoPhaseOrderPolicy() OrderPolicy { return &twoPhase{} }

// twoPhaseStream is one placement stream's block bookkeeping on a chip: its
// own fast block and slow-block queue, so hot and cold data never share a
// block.
type twoPhaseStream struct {
	afb    int      // active fast block, -1 when none
	afbPos int      // next LSB word line of the AFB
	sbq    IntQueue // slow block queue; head is the active slow block
	asbPos int      // next MSB word line of the head slow block
}

// twoPhaseChip is the per-chip block bookkeeping of the block pool manager.
type twoPhaseChip struct {
	streams []twoPhaseStream
	// queued is the number of slow blocks queued over all streams (the sum
	// of their sbq lengths) and fastLeft the LSB pages left in their open
	// fast blocks. The program paths keep both, so the per-write checks
	// (slowAvailable, fastBudget, foregroundGC) read one field instead of
	// walking the streams.
	queued, fastLeft int

	// Crash-recovery bookkeeping for the chip's open destructive window: the
	// LPN of the most recent MSB program, the physical page it superseded
	// (InvalidPPN if the LPN had no prior copy), whether the program was a
	// GC relocation, and which stream issued it. A power cut during that
	// program loses the new copy; recovery rolls the mapping back to
	// lastMSBPrev, which the device's erase barrier keeps intact while the
	// window is open (GC relocations stay on-chip, and an on-chip erase
	// would have closed the window). The record is per chip, not per
	// stream: the device serializes cell operations, so at most one window
	// exists per chip and a newer MSB program supersedes the previous one.
	lastMSBLPN    LPN
	lastMSBPrev   nand.PPN
	lastMSBGC     bool
	lastMSBStream int
}

type twoPhase struct {
	chips []twoPhaseChip

	// impactScratch backs shardWriteImpact's first-cost accumulation (serial
	// planner only, like the other policies' scratch).
	impactScratch []int
}

func (o *twoPhase) init(k *Kernel) error {
	if k.Dev.Rules().Name() == "FPS" {
		return fmt.Errorf("%s: device enforces FPS; two-phase ordering requires the RPS scheme", k.name)
	}
	// Every chip's streams, and their slow queues' first 8-slot rings, are
	// windows of one allocation each.
	chips, n := k.Dev.Geometry().Chips(), k.streams
	o.chips = make([]twoPhaseChip, chips)
	sts, rings := make([]twoPhaseStream, chips*n), make([]int, chips*n*8)
	for i := range sts {
		sts[i] = twoPhaseStream{afb: -1, sbq: IntQueue{buf: rings[i*8 : (i+1)*8]}}
	}
	for c := range o.chips {
		o.chips[c] = twoPhaseChip{streams: sts[c*n : (c+1)*n : (c+1)*n], lastMSBPrev: nand.InvalidPPN}
	}
	return nil
}

// program writes one page of the requested type on the chip's stream,
// falling back to the other type when the requested one is infeasible, and
// maintaining the 2PO block life cycle of Figure 6.
func (o *twoPhase) program(k *Kernel, chip, stream int, pref Pref, lpn LPN, data, spare []byte, now sim.Time, fromGC bool) (sim.Time, error) {
	st := &o.chips[chip].streams[stream]
	useLSB := pref != PrefSlow
	if useLSB {
		// Opening a new fast block below the budget's Emergency level would
		// take the block kept for the parity-backup writer or a sibling
		// stream; redirect to a slow page instead.
		if st.afb == -1 && k.Pools[chip].FreeCount() < k.Budget.Emergency {
			useLSB = false
		}
	}
	if !useLSB && st.sbq.Len() == 0 {
		useLSB = true // no slow block exists (footnote 1)
	}
	if useLSB && st.afb == -1 && k.Pools[chip].FreeCount() < k.Budget.Emergency {
		// Reserve valve: the stream needs a new fast block, but the shared
		// pool is down to the blocks the guard above keeps for the parity
		// writer and the sibling streams (footnote 1 overrode it). Popping
		// one would leave a foreground collection whose victim outgrows the
		// cold stream's open block nowhere to relocate, so drain a sibling
		// stream's slow block, else fill its open fast block, and pop only
		// when no stream has room — cross-stream pollution beats block
		// exhaustion. A single stream has no sibling; its path is untouched.
		for s := range o.chips[chip].streams {
			if o.chips[chip].streams[s].sbq.Len() > 0 {
				return o.programMSB(k, chip, s, lpn, data, spare, now, fromGC)
			}
		}
		for s := range o.chips[chip].streams {
			if o.chips[chip].streams[s].afb != -1 {
				return o.programLSB(k, chip, s, lpn, data, spare, now, fromGC)
			}
		}
	}
	if useLSB {
		return o.programLSB(k, chip, stream, lpn, data, spare, now, fromGC)
	}
	return o.programMSB(k, chip, stream, lpn, data, spare, now, fromGC)
}

// programLSB writes the next LSB page of the stream's active fast block.
func (o *twoPhase) programLSB(k *Kernel, chip, stream int, lpn LPN, data, spare []byte, now sim.Time, fromGC bool) (sim.Time, error) {
	ch := &o.chips[chip]
	st := &ch.streams[stream]
	if st.afb == -1 {
		blk, ok := k.placement.pickFree(k, chip, stream)
		if !ok {
			return now, fmt.Errorf("%s: chip %d out of free blocks for a fast block", k.name, chip)
		}
		st.afb, st.afbPos = blk, 0
		ch.fastLeft += k.wordLines
		k.bk.onFastOpen(k, chip, stream)
		k.Obs.Instant(obs.KindBlockFast, int32(chip), now, int64(blk), int64(k.Pools[chip].FreeCount()))
	}
	ppn := k.lay.PPNOf(nand.PageAddr{
		BlockAddr: nand.BlockAddr{Chip: chip, Block: st.afb},
		Page:      core.Page{WL: st.afbPos, Type: core.LSB},
	})
	done, err := k.Dev.ProgramPPN(ppn, data, spare, now)
	if err != nil {
		return now, err
	}
	k.Map.Update(lpn, ppn)
	done, err = k.backupAfterLSB(chip, stream, data, done)
	if err != nil {
		return done, err
	}
	k.noteData(true, fromGC)
	k.alloc.onProgram(k, true, fromGC)
	st.afbPos++
	ch.fastLeft--
	if st.afbPos == k.wordLines {
		// Fast block complete: queue it as a slow block first so the block
		// pool state stays consistent even if the parity write fails, then
		// persist its parity page (Figure 7(a)).
		full := st.afb
		st.sbq.Push(full)
		ch.queued++
		st.afb = -1
		k.Obs.Instant(obs.KindBlockQueued, int32(chip), now, int64(full), int64(st.sbq.Len()))
		done, err = k.backupOnFastComplete(chip, stream, full, done)
		if err != nil {
			return done, err
		}
	}
	return done, nil
}

// programMSB writes the next MSB page of the stream's active slow block (the
// head of its slow block queue).
func (o *twoPhase) programMSB(k *Kernel, chip, stream int, lpn LPN, data, spare []byte, now sim.Time, fromGC bool) (sim.Time, error) {
	ch := &o.chips[chip]
	st := &ch.streams[stream]
	if st.sbq.Len() == 0 {
		return now, fmt.Errorf("%s: chip %d has no slow block for an MSB write", k.name, chip)
	}
	blk := st.sbq.Front()
	ppn := k.lay.PPNOf(nand.PageAddr{
		BlockAddr: nand.BlockAddr{Chip: chip, Block: blk},
		Page:      core.Page{WL: st.asbPos, Type: core.MSB},
	})
	done, err := k.Dev.ProgramPPN(ppn, data, spare, now)
	if err != nil {
		return now, err
	}
	// Deliberately no AckProgram here: the paired LSB page is protected by
	// the block's parity page, and the recovery procedure (recover2po.go)
	// reconstructs it after a power cut. This is the point of the design —
	// no per-MSB backup writes.
	ch.lastMSBLPN = lpn
	ch.lastMSBPrev = k.Map.Update(lpn, ppn)
	ch.lastMSBGC = fromGC
	ch.lastMSBStream = stream
	k.noteData(false, fromGC)
	k.alloc.onProgram(k, false, fromGC)
	st.asbPos++
	if st.asbPos == k.wordLines {
		// Slow block complete: its parity backup is no longer needed.
		k.backupOnSlowComplete(chip, blk)
		k.Dev.AckProgram(nand.BlockAddr{Chip: chip, Block: blk})
		k.Pools[chip].PushFull(blk)
		st.sbq.PopFront()
		ch.queued--
		st.asbPos = 0
		k.Obs.Instant(obs.KindBlockFull, int32(chip), now, int64(blk), int64(st.sbq.Len()))
	}
	return done, nil
}

// foregroundGC reclaims blocks inline only when the write path has no
// alternative: MSB writes consume no free blocks, so as long as a slow block
// exists the policy redirects traffic there instead of stalling. Foreground
// collection therefore runs only when LSB capacity is genuinely required
// (no stream has a slow block) with the pool below the budget's Thin level,
// or when the pool is below its Emergency level.
func (o *twoPhase) foregroundGC(k *Kernel, chip int, now sim.Time) (sim.Time, error) {
	// The chip genuinely requires LSB capacity only when EVERY stream is out
	// of slow blocks — a single stream's empty queue is a stream-local state
	// the redirect guard and the emergency valve absorb. Triggering on "any
	// stream empty" would keep the collector running continuously under
	// skewed traffic (the cold-heavy regime leaves the hot queue empty
	// almost permanently) and collapse into a GC spiral. For one stream the
	// two readings coincide.
	//
	// That test (ch.queued == 0) is re-evaluated every iteration, not
	// latched at entry: a collection's own relocations move slow-block-queue
	// state (an MSB relocation completing the active slow block pops the
	// queue), and a latched value would make the loop's outcome depend on
	// how many calls the same state is spread over. Re-evaluating makes
	// foregroundGC a pure function of chip state — in particular idempotent,
	// which the epoch planner's GC pre-run relies on: when a pre-run's
	// headroom recheck fails and the write falls back to serial execution,
	// the write's in-line foregroundGC call must be a provable no-op, not a
	// second collection the serial schedule would have run one write later.
	ch, pool := &o.chips[chip], k.Pools[chip]
	for (ch.queued == 0 && pool.FreeCount() < k.Budget.Thin) || pool.FreeCount() < k.Budget.Emergency {
		victim, ok := pool.PickVictim()
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

func (o *twoPhase) idleDrain(*Kernel, sim.Time, sim.Time) {}

// fastBudget returns how many LSB pages the chip can still serve without
// eating into the budget's Spare level, summed over placement streams.
func (o *twoPhase) fastBudget(k *Kernel, chip int) int {
	return o.chips[chip].fastLeft + k.spareBlocks(chip)*k.wordLines
}

func (o *twoPhase) slowAvailable(k *Kernel, chip int) bool { return o.chips[chip].queued > 0 }

// shardWriteImpact for 2PO: MSB programs never pop free blocks, so the worst
// case is all w writes landing on LSB pages, routed adversarially across the
// streams' active fast block chains.
func (o *twoPhase) shardWriteImpact(k *Kernel, chip, w int) (pops, fills int) {
	wl := k.wordLines
	sts := o.chips[chip].streams
	costs := o.impactScratch[:0]
	for s := range sts {
		slack := 0
		if sts[s].afb != -1 {
			slack = wl - sts[s].afbPos
		}
		costs = append(costs, slack+1)
	}
	pops = worstCaseUnits(costs, w, wl)
	costs = costs[:0]
	for s := range sts {
		fc := wl
		if sts[s].afb != -1 {
			fc = wl - sts[s].afbPos
		}
		costs = append(costs, fc)
	}
	fills = worstCaseUnits(costs, w, wl)
	o.impactScratch = costs
	return pops, fills
}

// shardWriteImpactMin: best-case routing fills the pooled LSB slack of every
// stream before popping, and completes no fast block (fills 0).
func (o *twoPhase) shardWriteImpactMin(k *Kernel, chip, w int) (pops, fills int) {
	sts := o.chips[chip].streams
	if len(sts) == 1 {
		return o.shardWriteImpact(k, chip, w)
	}
	wl := k.wordLines
	slack := 0
	for s := range sts {
		if sts[s].afb != -1 {
			slack += wl - sts[s].afbPos
		}
	}
	if w > slack {
		pops = (w - slack + wl - 1) / wl
	}
	return pops, 0
}
