package nand

import (
	"errors"
	"fmt"

	"flexftl/internal/core"
	"flexftl/internal/obs"
	"flexftl/internal/pagemem"
	"flexftl/internal/rel"
	"flexftl/internal/sim"
)

// Sentinel errors returned by device operations.
var (
	// ErrUncorrectable is returned by ReadInto when the page's data was lost
	// (e.g. the paired LSB page of an MSB program interrupted by power-off)
	// and ECC cannot reconstruct it.
	ErrUncorrectable = errors.New("nand: ECC-uncorrectable page")
	// ErrNotProgrammed is returned by ReadInto on an erased (never
	// programmed) page.
	ErrNotProgrammed = errors.New("nand: reading erased page")
	// ErrBadBlock is returned for operations on a block retired after
	// exceeding its erase budget (when a budget is configured).
	ErrBadBlock = errors.New("nand: bad (retired) block")
)

// Config assembles everything needed to instantiate a Device.
type Config struct {
	Geometry Geometry
	Timing   Timing
	// Rules is the program-order scheme the device enforces. nil defaults
	// to core.FPS, matching stock parts; RPS devices pass core.RPS.
	Rules core.RuleSet
	// EraseBudget, when > 0, retires a block after that many erases,
	// surfacing ErrBadBlock. 0 disables retirement (lifetime experiments
	// count erases instead).
	EraseBudget int
	// Reliability, when non-nil, enables the per-page BER model: every read
	// of a programmed page gets a deterministic ECC outcome — clean,
	// corrected (possibly after retry rounds that each add one array read of
	// latency, charged to obs.CauseReadRetry), or uncorrectable
	// (rel.ErrUncorrectable after paying the full ladder). nil keeps the
	// device bit-exact with the pre-reliability simulator.
	Reliability *rel.Config
}

// block is the physical state of one erase block.
type block struct {
	state      core.BlockState // its bitmap is a run of the device's one allocation
	eraseCount int
	retired    bool
	// readCount counts reads of the block since its last erase (the
	// read-disturb stress axis); firstProgAt is the retention clock of the
	// block's oldest data. Both only maintained when the reliability model
	// is on; readCount resets on erase.
	readCount   uint64
	firstProgAt sim.Time
	hasProg     bool
}

// msbWindow is a chip's destructive-program window: the most recent
// refinement (MSB or finer) program that the storage layer has not yet
// declared power-safe. While the window is open a power cut destroys the
// refinement page and every coarser page of its word line. A chip serializes
// its cell operations, so at most one window exists per chip; a newer
// refinement supersedes the previous window (the chip timeline passed the
// older program before accepting the new one).
type msbWindow struct {
	blk   int
	wl    int
	level core.PageType
	open  bool
}

// chip carries the busy timeline and pages of one die; its blocks are a run
// of Device.blocks.
type chip struct {
	// pages is the chip's run of the device's one flat page array, block-major:
	// page idx of block b is pages[b*PagesPerBlock+idx], and that index is also
	// the page's key in side and progAt.
	pages []pagemem.Page
	// side holds the spares of the chip's wide pages, in a list carved from
	// the device's bitmap allocation, and its oversize payloads.
	side pagemem.Side
	// progAt is the retention clock of each page — the virtual time of its
	// last program — indexed like pages. Only the reliability model reads it,
	// so it is nil on a device without one.
	progAt  []sim.Time
	channel int
	readyAt sim.Time
	win     msbWindow
}

// blockPages returns the block's run of the chip's page array.
func (c *chip) blockPages(blk, pagesPerBlock int) []pagemem.Page {
	return c.pages[blk*pagesPerBlock:][:pagesPerBlock]
}

// OpCounts tallies device operations, programs split into the fast LSB
// pages and the slow refinements.
type OpCounts struct {
	Reads       int64
	ProgramsLSB int64
	ProgramsMSB int64 // MSB and every finer level
	// ProgramsFiner is the part of ProgramsMSB at levels 2 and up (TLC, QLC).
	ProgramsFiner [MaxLevels - 2]int64
	Erases        int64
}

// Programs returns total page programs.
func (c OpCounts) Programs() int64 { return c.ProgramsLSB + c.ProgramsMSB }

// ProgramsByLevel returns the program count of each of the first levels
// page levels, LSB first.
func (c OpCounts) ProgramsByLevel(levels int) []int64 {
	by := make([]int64, levels)
	by[0], by[1] = c.ProgramsLSB, c.ProgramsMSB
	for l := 2; l < levels; l++ {
		by[l] = c.ProgramsFiner[l-2]
		by[1] -= by[l]
	}
	return by
}

// Device is the NAND subsystem. It is not safe for concurrent use: the
// simulator is single-threaded over a virtual clock by design, so that runs
// are reproducible.
type Device struct {
	cfg   Config
	rules core.RuleSet
	// lay numbers the pages; every per-page operation starts from a PPN.
	lay Layout
	// pages and blocks are the device's one page and block array, indexed by
	// PPN and by flat block; every chip holds a run of each.
	pages    []pagemem.Page
	blocks   []block
	chips    []chip
	chanFree []sim.Time // per-channel bus availability
	counts   []OpCounts // per-chip operation counters (Counts sums them)
	busyTime []sim.Time // accumulated busy time per chip (utilization metric)

	// cause is the ambient attribution register, kept per chip so channel
	// shards of a single run can bracket their own chips without sharing a
	// register: every operation charges its busy time to the cause in force
	// on its chip when it was issued. The FTL sets it around GC, backup and
	// pad paths (save/restore discipline); CauseHost is the default.
	// causeBusy accumulates unconditionally — it is pure accounting on the
	// virtual timeline and never changes timing.
	cause     []obs.Cause
	causeBusy [][obs.CauseCount]sim.Time

	// relCounts aggregates reliability read outcomes per chip (chip-local so
	// channel shards never share a counter); nil when the model is off.
	relCounts []rel.Counts

	// Observability (nil when tracing is disabled).
	rec      *obs.Recorder
	causeCtr [obs.CauseCount]*obs.Counter

	// relTables memoises the reliability model per chip (see relTable); nil
	// when the model is off. Last, so that every field a model-less device
	// touches sits where it did before the table existed.
	relTables []relTable
}

// NewDevice builds a device from the configuration.
func NewDevice(cfg Config) (*Device, error) {
	if err := cfg.Geometry.Validate(); err != nil {
		return nil, err
	}
	if err := CheckCapacity(cfg.Geometry); err != nil {
		return nil, err
	}
	if err := cfg.Timing.Validate(cfg.Geometry.BitsPerCell()); err != nil {
		return nil, err
	}
	rules := cfg.Rules
	if rules == nil {
		rules = core.FPS
	}
	if cfg.Reliability != nil {
		if err := cfg.Reliability.Validate(); err != nil {
			return nil, err
		}
	}
	scheme := cfg.Geometry.Scheme()
	d := &Device{
		cfg:       cfg,
		rules:     rules,
		lay:       NewLayout(cfg.Geometry),
		chips:     make([]chip, cfg.Geometry.Chips()),
		chanFree:  make([]sim.Time, cfg.Geometry.Channels),
		counts:    make([]OpCounts, cfg.Geometry.Chips()),
		busyTime:  make([]sim.Time, cfg.Geometry.Chips()),
		cause:     make([]obs.Cause, cfg.Geometry.Chips()),
		causeBusy: make([][obs.CauseCount]sim.Time, cfg.Geometry.Chips()),
	}
	// One page array, one program-state bitmap and one block array for the
	// whole device, chip-major, so building it costs the same few allocations
	// however many blocks and pages there are; a BER model adds one retention
	// clock array of the same shape. The bitmap allocation also holds every
	// chip's wide-spare list, with room for the parity pages of three blocks
	// of LSB pages: a backup block being filled and one full one per
	// placement stream, of which the registered FTLs have at most two.
	perChip := d.lay.pagesPerChip
	pages := make([]pagemem.Page, len(d.chips)*perChip)
	words := core.BitmapWords(scheme)
	bitmaps := cfg.Geometry.TotalBlocks() * words
	wideRoom := 3 * cfg.Geometry.WordLinesPerBlock
	written := make([]uint64, bitmaps+len(d.chips)*wideRoom)
	var progAt []sim.Time
	if cfg.Reliability != nil {
		progAt = make([]sim.Time, len(pages))
		d.relCounts = make([]rel.Counts, cfg.Geometry.Chips())
		d.relTables = make([]relTable, cfg.Geometry.Chips())
	}
	blocks := make([]block, cfg.Geometry.TotalBlocks())
	for b := range blocks {
		blocks[b].state = core.BlockStateOver(scheme, written[b*words:][:words:words])
	}
	d.pages, d.blocks = pages, blocks
	for c := range d.chips {
		d.chips[c].pages = pages[c*perChip:][:perChip:perChip]
		d.chips[c].side = pagemem.NewSide(written[bitmaps+c*wideRoom:][:wideRoom:wideRoom])
		if progAt != nil {
			d.chips[c].progAt = progAt[c*perChip:][:perChip:perChip]
		}
		d.chips[c].channel = cfg.Geometry.ChannelOf(c)
	}
	return d, nil
}

// SetRecorder attaches an observability recorder: per-operation span events
// (program, read, erase on chip tracks; transfers on channel tracks) and
// the per-cause busy counters. A nil recorder disables emission again. The
// recorder only observes — timing and results are unchanged.
func (d *Device) SetRecorder(r *obs.Recorder) {
	d.rec = r
	reg := r.Registry()
	for c := obs.Cause(0); c < obs.CauseCount; c++ {
		d.causeCtr[c] = reg.Counter(obs.BusyCounterName("nand", c))
	}
}

// SetCause switches the ambient attribution cause on every chip and returns
// the previous one, so callers bracket a code path with
//
//	prev := d.SetCause(obs.CauseGC)
//	defer d.SetCause(prev)
//
// Nested paths (a backup write inside a GC relocation) override and restore
// naturally. The cause only labels accounting; timing and results never
// depend on it. Serial callers see the single-register semantics this always
// had (all chips share one cause between brackets); code paths that must not
// touch other chips' registers — the channel shards of a parallel run —
// bracket with SetCauseChip instead.
func (d *Device) SetCause(c obs.Cause) obs.Cause {
	prev := d.cause[0]
	for i := range d.cause {
		d.cause[i] = c
	}
	return prev
}

// SetCauseChip switches the attribution cause of one chip only, returning
// that chip's previous cause. This is the bracket for paths that touch a
// single chip (backup writes paired with a host program), and the only legal
// bracket inside a channel shard.
func (d *Device) SetCauseChip(chipID int, c obs.Cause) obs.Cause {
	prev := d.cause[chipID]
	d.cause[chipID] = c
	return prev
}

// Cause returns the ambient attribution cause in force (chip 0's register;
// outside chip-scoped brackets all chips agree).
func (d *Device) Cause() obs.Cause { return d.cause[0] }

// CauseBusy returns the accumulated media busy time charged to each cause
// (µs of chip occupancy, indexed by obs.Cause), summed over chips in chip
// order.
func (d *Device) CauseBusy() [obs.CauseCount]sim.Time {
	var total [obs.CauseCount]sim.Time
	for chip := range d.causeBusy {
		for c := range d.causeBusy[chip] {
			total[c] += d.causeBusy[chip][c]
		}
	}
	return total
}

// chargeBusy attributes one operation's busy time to the chip's ambient
// cause.
func (d *Device) chargeBusy(chipID int, dur sim.Time) {
	d.chargeBusyCause(chipID, d.cause[chipID], dur)
}

// chargeBusyCause attributes busy time to an explicit cause, bypassing the
// ambient register — the device's own retry latency is read_retry no matter
// what path issued the read.
func (d *Device) chargeBusyCause(chipID int, cause obs.Cause, dur sim.Time) {
	d.causeBusy[chipID][cause] += dur
	if d.rec != nil {
		d.causeCtr[cause].Add(int64(dur))
	}
}

// Geometry returns the device geometry.
func (d *Device) Geometry() Geometry { return d.cfg.Geometry }

// Timing returns the device timing parameters.
func (d *Device) Timing() Timing { return d.cfg.Timing }

// Rules returns the enforced program-order scheme.
func (d *Device) Rules() core.RuleSet { return d.rules }

// Counts returns the operation counters, summed over chips in chip order.
func (d *Device) Counts() OpCounts {
	var total OpCounts
	for i := range d.counts {
		total.Reads += d.counts[i].Reads
		total.ProgramsLSB += d.counts[i].ProgramsLSB
		total.ProgramsMSB += d.counts[i].ProgramsMSB
		for l, n := range d.counts[i].ProgramsFiner {
			total.ProgramsFiner[l] += n
		}
		total.Erases += d.counts[i].Erases
	}
	return total
}

// ChipReadyAt returns when the chip's cell array becomes free.
func (d *Device) ChipReadyAt(chipID int) sim.Time { return d.chips[chipID].readyAt }

// ChipBusyTime returns the accumulated cell-busy time of a chip, an input to
// utilization metrics.
func (d *Device) ChipBusyTime(chipID int) sim.Time { return d.busyTime[chipID] }

func (d *Device) blockAt(a BlockAddr) (*block, error) {
	if uint(a.Chip) >= uint(d.lay.chips) {
		return nil, fmt.Errorf("nand: chip %d out of range [0,%d)", a.Chip, d.lay.chips)
	}
	if uint(a.Block) >= uint(d.lay.blocksPerChip) {
		return nil, fmt.Errorf("nand: block %d out of range [0,%d)", a.Block, d.lay.blocksPerChip)
	}
	return &d.blocks[a.Chip*d.lay.blocksPerChip+a.Block], nil
}

// ppnAt validates a page address and numbers it.
func (d *Device) ppnAt(a PageAddr) (PPN, error) {
	if _, err := d.blockAt(a.BlockAddr); err != nil {
		return InvalidPPN, err
	}
	if uint(a.Page.WL) >= uint(d.lay.wordLines) {
		return InvalidPPN, fmt.Errorf("nand: word line %d out of range [0,%d)", a.Page.WL, d.lay.wordLines)
	}
	if a.Page.Index(d.lay.wordLines) >= d.lay.pagesPerBlock {
		return InvalidPPN, fmt.Errorf("nand: page %v beyond the device's %d bits per cell", a.Page, d.cfg.Geometry.BitsPerCell())
	}
	return d.lay.PPNOf(a), nil
}

// pageAt resolves a page address to its page record.
func (d *Device) pageAt(a PageAddr) (*pagemem.Page, error) {
	ppn, err := d.ppnAt(a)
	if err != nil {
		return nil, err
	}
	return &d.pages[ppn], nil
}

// errPPN is the error of an operation on a page number outside the device.
func (d *Device) errPPN(ppn PPN) error {
	return fmt.Errorf("nand: page number %d out of range [0,%d)", ppn, d.lay.pages)
}

// Layout returns the device's page numbering.
func (d *Device) Layout() *Layout { return &d.lay }

// Program writes data (and optional spare bytes) to the page, enforcing the
// configured program-order scheme. It returns the virtual time at which the
// program completes. Issue semantics: the transfer starts when both the
// channel bus and the chip are free; the cell program then occupies the chip.
func (d *Device) Program(a PageAddr, data, spare []byte, now sim.Time) (sim.Time, error) {
	ppn, err := d.ppnAt(a)
	if err != nil {
		return now, err
	}
	return d.ProgramPPN(ppn, data, spare, now)
}

// ProgramPPN is Program of the page numbered ppn.
func (d *Device) ProgramPPN(ppn PPN, data, spare []byte, now sim.Time) (sim.Time, error) {
	if !d.lay.InRange(ppn) {
		return now, d.errPPN(ppn)
	}
	flat, chipID, blkID, idx := d.lay.locate(ppn)
	blk := &d.blocks[flat]
	page := core.PageFromIndex(idx, d.lay.wordLines)
	if blk.retired {
		return now, fmt.Errorf("%w: %v", ErrBadBlock, BlockAddr{Chip: chipID, Block: blkID})
	}
	if err := d.rules.Check(&blk.state, page); err != nil {
		return now, err
	}
	g := &d.cfg.Geometry
	if len(data) > g.PageSizeBytes {
		return now, fmt.Errorf("nand: payload %dB exceeds page size %dB", len(data), g.PageSizeBytes)
	}
	if len(spare) > g.SpareBytes {
		return now, fmt.Errorf("nand: spare payload %dB exceeds spare size %dB", len(spare), g.SpareBytes)
	}

	c := &d.chips[chipID]
	ch := c.channel
	start := sim.MaxOf(now, sim.MaxOf(c.readyAt, d.chanFree[ch]))
	xferDone := start + d.cfg.Timing.BusXfer
	done := xferDone + d.cfg.Timing.Prog(page.Type)
	d.chanFree[ch] = xferDone
	c.readyAt = done
	d.busyTime[chipID] += done - start
	d.chargeBusy(chipID, done-start)
	if d.rec != nil {
		d.rec.Span(obs.KindXfer, int32(ch), start, xferDone, int64(chipID), int64(blkID))
		// KindProgramMSB covers every refinement: its word-line argument
		// carries the level in bits 32 and up when it is finer than MSB, so
		// MLC traces are unchanged.
		kind, arg := obs.KindProgramLSB, int64(page.WL)
		if page.Type != core.LSB {
			kind = obs.KindProgramMSB
			if page.Type > core.MSB {
				arg |= int64(page.Type) << 32
			}
		}
		d.rec.Span(kind, int32(chipID), xferDone, done, int64(blkID), arg)
	}

	blk.state.MarkChecked(page) // d.rules.Check above accepted it
	key := int(ppn) - chipID*d.lay.pagesPerChip
	d.pages[ppn].Store(&c.side, key, data, spare)
	if d.cfg.Reliability != nil {
		c.progAt[key] = done
		if !blk.hasProg {
			blk.hasProg = true
			blk.firstProgAt = done
		}
	}

	if page.Type != core.LSB {
		d.counts[chipID].ProgramsMSB++
		if page.Type > core.MSB {
			d.counts[chipID].ProgramsFiner[page.Type-2]++
		}
		// While the refinement is unacknowledged the word line's coarser
		// data is in its destructive transient state. Record the window for
		// power-loss injection; it stays open until AckProgram, a newer
		// refinement on the chip, or an erase on the chip. An LSB program
		// does NOT close it: under interleaved FPS orders the hazard of a
		// pending MSB is unaffected by LSB programs elsewhere on the chip.
		c.win = msbWindow{blk: blkID, wl: page.WL, level: page.Type, open: true}
	} else {
		d.counts[chipID].ProgramsLSB++
	}
	return done, nil
}

// AckProgram declares the block's most recent refinement program power-safe
// (its data is covered by a backup, or the destructive phase is over).
// Between Program and AckProgram a power cut destroys the word line's coarser
// pages (on MLC, the paired LSB page). Acking a block other than the window's
// is a no-op — the window belongs to whichever block programmed last.
func (d *Device) AckProgram(a BlockAddr) {
	if a.Chip < 0 || a.Chip >= len(d.chips) {
		return
	}
	c := &d.chips[a.Chip]
	if c.win.open && c.win.blk == a.Block {
		c.win.open = false
	}
}

// OpenMSBWindow reports the chip's open destructive window, if any: the
// address of the unacknowledged refinement page whose word line a power cut
// would destroy. Crash-injection harnesses use it to locate the vulnerable
// pages before calling InjectPowerLoss.
func (d *Device) OpenMSBWindow(chipID int) (PageAddr, bool) {
	if chipID < 0 || chipID >= len(d.chips) {
		return PageAddr{}, false
	}
	w := d.chips[chipID].win
	if !w.open {
		return PageAddr{}, false
	}
	return PageAddr{
		BlockAddr: BlockAddr{Chip: chipID, Block: w.blk},
		Page:      core.Page{WL: w.wl, Type: w.level},
	}, true
}

// The reliability model is evaluated per box of stress, not per read: reads
// of blocks with one erase count whose retention age and read count fall in
// the same bucket share one rel.Bracket, which decides almost all of them by
// a few compares and hands the rest to the exact evaluation.
const (
	// relAgeShift is log2 of the age bucket in virtual microseconds (2^30 µs
	// is 18 minutes); relReadsShift is log2 of the read-count bucket. Narrow
	// enough that a bucket's two ladders differ by well under a thousandth on
	// any rung.
	relAgeShift   = 30
	relReadsShift = 6
	// relTableBits is log2 of a chip's table size. A run touches one erase
	// count per block generation, a handful of age buckets and a few dozen
	// read-count buckets per chip.
	relTableBits = 10
)

// relEntry is one memoised bracket. It is a pure function of its key, so it
// is never invalidated: an erase or the passing of time only changes which
// key a read looks up.
type relEntry struct {
	used         bool
	erase        int
	ageB, readsB uint64
	bracket      rel.Bracket
}

// relTable is one chip's direct-mapped bracket table — per chip because
// channel shards read disjoint chips concurrently. The counters are read by
// tests only.
type relTable struct {
	entries                [1 << relTableBits]relEntry
	hits, fills, fallbacks int64
}

// relClassify returns the ECC outcome of a read with sample u of a page aged
// age on a block of chipID erased eraseCount times and read reads times since.
// It equals ReadOutcome(Model.BER(eraseCount, age, reads), pageBytes, u).
func (d *Device) relClassify(chipID, eraseCount int, age sim.Time, reads uint64, u float64) rel.Outcome {
	rc := d.cfg.Reliability
	pageBytes := d.cfg.Geometry.PageSizeBytes
	ageB, readsB := uint64(age)>>relAgeShift, reads>>relReadsShift
	h := uint64(eraseCount)*0x9e3779b97f4a7c15 ^ ageB*0xbf58476d1ce4e5b9 ^ readsB*0x94d049bb133111eb
	t := &d.relTables[chipID]
	e := &t.entries[h>>(64-relTableBits)]
	if !e.used || e.erase != eraseCount || e.ageB != ageB || e.readsB != readsB {
		t.fills++
		ageLo, readsLo := sim.Time(ageB<<relAgeShift), readsB<<relReadsShift
		*e = relEntry{used: true, erase: eraseCount, ageB: ageB, readsB: readsB,
			bracket: rc.Bracket(eraseCount, ageLo, ageLo|(1<<relAgeShift-1),
				readsLo, readsLo|(1<<relReadsShift-1), pageBytes)}
	}
	if o, ok := e.bracket.ReadOutcome(u); ok {
		t.hits++
		return o
	}
	t.fallbacks++
	return rc.ReadOutcome(rc.Model.BER(eraseCount, age, reads), pageBytes, u)
}

// relOutcome evaluates the reliability model for one read of a programmed
// page (key is its index within the chip): the predicted BER from the
// block's wear, the page's retention age and the block's read-disturb count,
// classified through the ECC retry ladder by a hash of the read's chip-local
// identity. Only called when the model is enabled.
func (d *Device) relOutcome(chipID, blkID, idx int, blk *block, key int, at sim.Time) rel.Outcome {
	rc := d.cfg.Reliability
	blk.readCount++
	age := at - d.chips[chipID].progAt[key]
	if age < 0 {
		age = 0
	}
	u := rc.Sample(chipID, blkID, idx, blk.readCount)
	o := d.relClassify(chipID, blk.eraseCount, age, blk.readCount, u)
	rcs := &d.relCounts[chipID]
	rcs.Reads++
	if o.Corrected {
		rcs.Corrected++
	}
	if o.Retries > 0 {
		rcs.RetriedReads++
		rcs.RetryRounds += int64(o.Retries)
	}
	if o.Uncorrectable {
		rcs.Uncorrectable++
	}
	return o
}

// PageBuf is a caller-owned destination for ReadInto. Its backing arrays
// grow to the device's page/spare size on first use and are reused
// afterwards, so steady-state reads through one PageBuf allocate nothing.
type PageBuf struct {
	// Data and Spare hold the last read's payload and spare area. They are
	// overwritten (length reset) by every ReadInto.
	Data, Spare []byte
}

// ReadInto reads a page: the payload and spare area land in buf's reusable
// backing arrays, and the completion time is returned. Reading an erased
// page or a corrupted page fails (the latter with ErrUncorrectable, after
// paying the sensing latency, as a real controller would); on error buf's
// slices are truncated to zero length. buf's contents are valid until the
// next ReadInto with the same buf — callers that hand the data onward (e.g.
// to Program, which copies) need no further copy; callers that keep it copy
// it out.
func (d *Device) ReadInto(a PageAddr, buf *PageBuf, now sim.Time) (sim.Time, error) {
	ppn, err := d.ppnAt(a)
	if err != nil {
		buf.Data, buf.Spare = buf.Data[:0], buf.Spare[:0]
		return now, err
	}
	return d.ReadPPN(ppn, buf, now)
}

// ReadPPN is ReadInto of the page numbered ppn.
func (d *Device) ReadPPN(ppn PPN, buf *PageBuf, now sim.Time) (done sim.Time, err error) {
	buf.Data, buf.Spare = buf.Data[:0], buf.Spare[:0]
	if !d.lay.InRange(ppn) {
		return now, d.errPPN(ppn)
	}
	flat, chipID, blkID, idx := d.lay.locate(ppn)
	pg := &d.pages[ppn]
	key := int(ppn) - chipID*d.lay.pagesPerChip
	c := &d.chips[chipID]
	ch := c.channel
	start := sim.MaxOf(now, c.readyAt)
	// The reliability outcome is known before timing is committed so retry
	// rounds extend the sense phase: each round re-occupies the cell array
	// for another read. The extra occupancy is charged to read_retry; the
	// base read keeps the ambient cause.
	var outcome rel.Outcome
	if d.cfg.Reliability != nil && pg.Intact() {
		outcome = d.relOutcome(chipID, blkID, idx, &d.blocks[flat], key, start)
	}
	retryDur := sim.Time(outcome.Retries) * d.cfg.Timing.Read
	senseDone := start + d.cfg.Timing.Read + retryDur
	xferStart := sim.MaxOf(senseDone, d.chanFree[ch])
	done = xferStart + d.cfg.Timing.BusXfer
	d.chanFree[ch] = done
	c.readyAt = done
	d.busyTime[chipID] += done - start
	d.chargeBusy(chipID, done-start-retryDur)
	if retryDur > 0 {
		d.chargeBusyCause(chipID, obs.CauseReadRetry, retryDur)
	}
	d.counts[chipID].Reads++
	if d.rec != nil {
		d.rec.Span(obs.KindRead, int32(chipID), start, senseDone, int64(blkID), int64(core.PageFromIndex(idx, d.lay.wordLines).WL))
		d.rec.Span(obs.KindXfer, int32(ch), xferStart, done, int64(chipID), int64(blkID))
	}

	switch {
	case !pg.Has(pagemem.Programmed):
		return done, fmt.Errorf("%w: %v", ErrNotProgrammed, d.lay.Addr(ppn))
	case pg.Has(pagemem.Corrupted):
		return done, fmt.Errorf("%w: %v", ErrUncorrectable, d.lay.Addr(ppn))
	case pg.Has(pagemem.Lost), outcome.Uncorrectable:
		return done, fmt.Errorf("%w: %v", rel.ErrUncorrectable, d.lay.Addr(ppn))
	}
	buf.Data, buf.Spare = pg.Load(&c.side, key, buf.Data, buf.Spare)
	return done, nil
}

// Erase resets a block, increments its wear counter, and returns the
// completion time. With an erase budget configured, blocks retire once worn
// out.
func (d *Device) Erase(a BlockAddr, now sim.Time) (sim.Time, error) {
	blk, err := d.blockAt(a)
	if err != nil {
		return now, err
	}
	if blk.retired {
		return now, fmt.Errorf("%w: %v", ErrBadBlock, a)
	}
	// A block at its erase budget fails the erase itself — the way real
	// NAND surfaces wear-out — and is retired from service.
	if d.cfg.EraseBudget > 0 && blk.eraseCount >= d.cfg.EraseBudget {
		blk.retired = true
		return now, fmt.Errorf("%w: %v worn out after %d erases", ErrBadBlock, a, blk.eraseCount)
	}
	c := &d.chips[a.Chip]
	start := sim.MaxOf(now, c.readyAt)
	done := start + d.cfg.Timing.Erase
	c.readyAt = done
	d.busyTime[a.Chip] += done - start
	d.chargeBusy(a.Chip, done-start)

	// A block nothing was programmed into since its last erase is already
	// all zero — every page flag is set behind Programmed — so erasing it
	// again (a pre-wear loop does, thousands of times per block) skips the
	// sweep. Otherwise one store per page: payloads are only read behind the
	// flag and are overwritten by the next program. A block holding a wide
	// page also drops its spares from the chip's list.
	if blk.state.Programmed() != 0 {
		c.side.Erase(c.blockPages(a.Block, d.lay.pagesPerBlock), a.Block*d.lay.pagesPerBlock)
		blk.state.Reset()
	}
	blk.eraseCount++
	blk.readCount = 0
	blk.hasProg = false
	// Erase barrier: the chip serialized this erase after any pending
	// program, so that program's destructive transient is physically over by
	// the time the erase begins. Closing the window here (unlike for LSB
	// programs, where keeping it open merely over-approximates the hazard)
	// matters for correctness: it guarantees that while a window is open, no
	// erase has happened on the chip since the refinement was issued — so the
	// previous copy of the interrupted page, always on the same chip for GC
	// relocations, still exists for recovery to roll back to.
	c.win.open = false
	d.counts[a.Chip].Erases++
	if d.rec != nil {
		d.rec.Span(obs.KindErase, int32(a.Chip), start, done, int64(a.Block), int64(blk.eraseCount))
	}
	return done, nil
}

// EraseCount returns the wear counter of a block.
func (d *Device) EraseCount(a BlockAddr) int {
	blk, err := d.blockAt(a)
	if err != nil {
		return 0
	}
	return blk.eraseCount
}

// Reliability returns the device's reliability configuration (nil when the
// model is off). FTL policies use it to derive ECC budgets.
func (d *Device) Reliability() *rel.Config { return d.cfg.Reliability }

// RelCounts returns the aggregated reliability read outcomes, summed over
// chips in chip order. Zero value when the model is off.
func (d *Device) RelCounts() rel.Counts {
	var total rel.Counts
	for i := range d.relCounts {
		total.Add(d.relCounts[i])
	}
	return total
}

// BlockReadCount returns the block's read-disturb counter (reads since last
// erase; maintained only when the reliability model is on).
func (d *Device) BlockReadCount(a BlockAddr) uint64 {
	blk, err := d.blockAt(a)
	if err != nil {
		return 0
	}
	return blk.readCount
}

// PredictBlockBER returns the model's BER prediction for the block's oldest
// data at the given time — the quantity the kernel's refresh policy steers
// under the ECC budget. Returns 0 when the model is off or the block holds
// no data since its last erase.
func (d *Device) PredictBlockBER(a BlockAddr, now sim.Time) float64 {
	rc := d.cfg.Reliability
	blk, err := d.blockAt(a)
	if rc == nil || err != nil || !blk.hasProg {
		return 0
	}
	age := now - blk.firstProgAt
	if age < 0 {
		age = 0
	}
	return rc.Model.BER(blk.eraseCount, age, blk.readCount)
}

// PredictFreshBER returns the model's BER prediction for data written to the
// block right now — pure wear, no retention or disturb. The retirement
// policy compares it against the ECC budget after each erase. Returns 0 when
// the model is off.
func (d *Device) PredictFreshBER(a BlockAddr) float64 {
	rc := d.cfg.Reliability
	blk, err := d.blockAt(a)
	if rc == nil || err != nil {
		return 0
	}
	return rc.Model.BER(blk.eraseCount, 0, 0)
}

// RetireBlock takes a block out of service: further programs and erases fail
// with ErrBadBlock. The kernel's retirement policy calls it when a block's
// post-erase predicted BER stays over the ECC budget.
func (d *Device) RetireBlock(a BlockAddr) error {
	blk, err := d.blockAt(a)
	if err != nil {
		return err
	}
	blk.retired = true
	return nil
}

// TotalErases sums wear over all blocks (equals Counts().Erases; kept as a
// cross-check for tests).
func (d *Device) TotalErases() int64 {
	var total int64
	for b := range d.blocks {
		total += int64(d.blocks[b].eraseCount)
	}
	return total
}

// WearStats summarizes per-block erase counts — the wear-imbalance view of
// the Figure 8(b) lifetime metric.
type WearStats struct {
	Min, Max int
	Mean     float64
	// Imbalance is Max/Mean (1.0 = perfectly even wear); 0 when unworn.
	Imbalance float64
}

// Wear computes erase-count statistics over all blocks.
func (d *Device) Wear() WearStats {
	var st WearStats
	first := true
	total := 0
	n := 0
	for b := range d.blocks {
		e := d.blocks[b].eraseCount
		if first {
			st.Min, st.Max = e, e
			first = false
		} else if e < st.Min {
			st.Min = e
		} else if e > st.Max {
			st.Max = e
		}
		total += e
		n++
	}
	if n > 0 {
		st.Mean = float64(total) / float64(n)
	}
	if st.Mean > 0 {
		st.Imbalance = float64(st.Max) / st.Mean
	}
	return st
}

// IsProgrammed reports whether a page holds data.
func (d *Device) IsProgrammed(a PageAddr) bool {
	pg, err := d.pageAt(a)
	return err == nil && pg.Has(pagemem.Programmed)
}

// PeekSpare returns the first pagemem.SpareBytes of the spare area of the
// page numbered ppn, where an FTL keeps a data page's LPN. It is a look, not
// a read: it takes no time, counts nothing, rolls no reliability outcome,
// ignores the Corrupted and Lost flags and allocates nothing. It reports
// false for a page out of range, an erased page and a shorter spare.
func (d *Device) PeekSpare(ppn PPN) ([pagemem.SpareBytes]byte, bool) {
	if !d.lay.InRange(ppn) {
		return [pagemem.SpareBytes]byte{}, false
	}
	chipID := d.lay.ChipOf(ppn)
	return d.pages[ppn].PeekSpare(&d.chips[chipID].side, int(ppn)-chipID*d.lay.pagesPerChip)
}

// WideSpares returns how many spares the chip keeps outside its page
// records — the spares that do not repeat their token's first bytes, which
// the FTLs write only on parity pages — and how many it has room for. The
// room is three blocks' worth of LSB pages unless a program passed it,
// after which the list grows, allocating.
func (d *Device) WideSpares(chipID int) (n, room int) {
	return d.chips[chipID].side.WideSpares()
}

// IsCorrupted reports whether a page's data was destroyed.
func (d *Device) IsCorrupted(a PageAddr) bool {
	pg, err := d.pageAt(a)
	return err == nil && pg.Has(pagemem.Corrupted)
}

// IsRetired reports whether a block has left service (worn out or retired).
func (d *Device) IsRetired(a BlockAddr) bool {
	blk, err := d.blockAt(a)
	return err == nil && blk.retired
}

// BlockProgrammedPages returns how many pages of the block are programmed.
func (d *Device) BlockProgrammedPages(a BlockAddr) int {
	blk, err := d.blockAt(a)
	if err != nil {
		return 0
	}
	return blk.state.Programmed()
}

// BlockStateSnapshot returns a copy of the block's program-order state, for
// inspection by FTLs and tests.
func (d *Device) BlockStateSnapshot(a BlockAddr) *core.BlockState {
	blk, err := d.blockAt(a)
	if err != nil {
		return nil
	}
	return blk.state.Clone()
}

// InjectPowerLoss simulates a sudden power-off at the given block. If the
// chip's destructive window is open on that block (a refinement issued but
// not yet acknowledged as power-safe), every coarser page of the word line
// loses its data — the destructive-program hazard of Section 1; on MLC the
// paired LSB page — and the interrupted page itself is left
// ECC-uncorrectable (its program never completed, so the host must treat
// that write as not durable). It reports whether pages were corrupted.
func (d *Device) InjectPowerLoss(a BlockAddr) bool {
	if _, err := d.blockAt(a); err != nil {
		return false
	}
	c := &d.chips[a.Chip]
	if !c.win.open || c.win.blk != a.Block {
		return false
	}
	pages := c.blockPages(a.Block, d.lay.pagesPerBlock)
	for level := core.LSB; level <= c.win.level; level++ {
		pages[core.Page{WL: c.win.wl, Type: level}.Index(d.lay.wordLines)].Flags |= pagemem.Corrupted
	}
	c.win.open = false
	return true
}

// MarkLost pins a programmed page ECC-uncorrectable: every future read fails
// with rel.ErrUncorrectable at base read latency (the controller knows the
// page is beyond the ladder and does not retry). The FTL calls it when a
// reliability loss could not be repaired, so the loss stays visible instead
// of flickering with the per-read outcome hash. Cleared by erase or program.
func (d *Device) MarkLost(a PageAddr) error {
	pg, err := d.pageAt(a)
	if err != nil {
		return err
	}
	if !pg.Has(pagemem.Programmed) {
		return fmt.Errorf("%w: cannot mark erased page %v lost", ErrNotProgrammed, a)
	}
	pg.Flags |= pagemem.Lost
	return nil
}

// CorruptPage marks any programmed page as ECC-uncorrectable. Fault
// injection for tests.
func (d *Device) CorruptPage(a PageAddr) error {
	pg, err := d.pageAt(a)
	if err != nil {
		return err
	}
	if !pg.Has(pagemem.Programmed) {
		return fmt.Errorf("%w: cannot corrupt erased page %v", ErrNotProgrammed, a)
	}
	pg.Flags |= pagemem.Corrupted
	return nil
}
