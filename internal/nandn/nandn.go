// Package nandn models an n-bit-per-cell NAND subsystem (TLC, QLC) the way
// internal/nand models 2-bit MLC: per-chip and per-channel busy timelines,
// per-level program latencies (each refinement is slower), enforcement of
// the generalized relaxed constraint set (internal/nlevel), payload storage
// with spare areas, and sudden-power-off corruption — an interrupted
// refinement at level i destroys all of the word line's previously stored
// bits, so every page T_0(k)..T_(i-1)(k) becomes ECC-uncorrectable.
//
// It exists to run the paper's Section 1 applicability claim ("RPS applies
// to TLC devices with a similar program scheme") as a working storage
// system, not only as a reliability study.
package nandn

import (
	"errors"
	"fmt"

	"flexftl/internal/nlevel"
	"flexftl/internal/obs"
	"flexftl/internal/pagemem"
	"flexftl/internal/rel"
	"flexftl/internal/sim"
)

// Sentinel errors (mirroring internal/nand).
var (
	ErrUncorrectable = errors.New("nandn: ECC-uncorrectable page")
	ErrNotProgrammed = errors.New("nandn: reading erased page")
)

// Geometry describes the physical organization.
type Geometry struct {
	Channels          int
	ChipsPerChannel   int
	BlocksPerChip     int
	WordLinesPerBlock int
	Levels            int // bits per cell
	PageSizeBytes     int
	SpareBytes        int
}

// TLCGeometry is a small 3-bit evaluation configuration.
func TLCGeometry() Geometry {
	return Geometry{
		Channels: 2, ChipsPerChannel: 2, BlocksPerChip: 64,
		WordLinesPerBlock: 32, Levels: 3, PageSizeBytes: 4096, SpareBytes: 64,
	}
}

// Validate rejects unusable geometries.
func (g Geometry) Validate() error {
	switch {
	case g.Channels <= 0 || g.ChipsPerChannel <= 0 || g.BlocksPerChip <= 0:
		return fmt.Errorf("nandn: non-positive channel/chip/block counts: %+v", g)
	case g.WordLinesPerBlock <= 0:
		return fmt.Errorf("nandn: need >= 1 word line, got %d", g.WordLinesPerBlock)
	case g.Levels < 2:
		return fmt.Errorf("nandn: need >= 2 levels, got %d", g.Levels)
	case g.PageSizeBytes <= 0 || g.SpareBytes < 0:
		return fmt.Errorf("nandn: bad page/spare sizes: %+v", g)
	}
	return nil
}

// Chips returns the total die count.
func (g Geometry) Chips() int { return g.Channels * g.ChipsPerChannel }

// Scheme returns the per-block nlevel scheme.
func (g Geometry) Scheme() nlevel.Scheme {
	return nlevel.Scheme{Levels: g.Levels, WordLines: g.WordLinesPerBlock}
}

// PagesPerBlock returns Levels * WordLinesPerBlock.
func (g Geometry) PagesPerBlock() int { return g.Levels * g.WordLinesPerBlock }

// TotalBlocks returns the block count.
func (g Geometry) TotalBlocks() int { return g.Chips() * g.BlocksPerChip }

// TotalPages returns the physical page count.
func (g Geometry) TotalPages() int { return g.TotalBlocks() * g.PagesPerBlock() }

// ChannelOf maps a chip to its bus.
func (g Geometry) ChannelOf(chip int) int { return chip / g.ChipsPerChannel }

// String summarizes the geometry.
func (g Geometry) String() string {
	return fmt.Sprintf("%dch x %dchips, %d blocks/chip, %d WL x %d bits (%d pages/block)",
		g.Channels, g.ChipsPerChannel, g.BlocksPerChip, g.WordLinesPerBlock, g.Levels, g.PagesPerBlock())
}

// Timing holds per-level program latencies plus read/erase/transfer.
type Timing struct {
	Read    sim.Time
	Prog    []sim.Time // per level, coarsest first; must be nondecreasing
	Erase   sim.Time
	BusXfer sim.Time
}

// TLCTiming returns plausible 3-bit latencies: refinements get slower as
// placement gets finer (the same asymmetry Figure 1 shows for MLC, one level
// deeper).
func TLCTiming() Timing {
	return Timing{
		Read:    60 * sim.Microsecond,
		Prog:    []sim.Time{400 * sim.Microsecond, 1100 * sim.Microsecond, 3000 * sim.Microsecond},
		Erase:   6 * sim.Millisecond,
		BusXfer: 10 * sim.Microsecond,
	}
}

// Validate rejects inconsistent timings for the given level count.
func (t Timing) Validate(levels int) error {
	if len(t.Prog) != levels {
		return fmt.Errorf("nandn: %d program latencies for %d levels", len(t.Prog), levels)
	}
	if t.Read <= 0 || t.Erase <= 0 || t.BusXfer < 0 {
		return fmt.Errorf("nandn: non-positive base latencies: %+v", t)
	}
	for i, p := range t.Prog {
		if p <= 0 {
			return fmt.Errorf("nandn: non-positive program latency at level %d", i)
		}
		if i > 0 && p < t.Prog[i-1] {
			return fmt.Errorf("nandn: level %d faster than level %d contradicts refinement asymmetry", i, i-1)
		}
	}
	return nil
}

// PageAddr identifies a physical page.
type PageAddr struct {
	Chip  int
	Block int
	Page  nlevel.Page
}

// String formats the address.
func (a PageAddr) String() string {
	return fmt.Sprintf("chip%d/blk%d/%v", a.Chip, a.Block, a.Page)
}

type block struct {
	state      *nlevel.State
	eraseCount int
	// inFlight marks an unacknowledged refinement: level and word line.
	inFlightLevel int // -1 when none
	inFlightWL    int
	// readCount is the read-disturb counter (reads since last erase;
	// maintained when the reliability model is on).
	readCount uint64
}

type chip struct {
	blocks []block
	// pages is the chip's run of the device's one flat page array (the same
	// layout as nand.Device): page idx of block b is pages[b*PagesPerBlock+idx],
	// which is also its key in oversize.
	pages    []pagemem.Page
	oversize pagemem.Oversize
	readyAt  sim.Time
}

// blockPages returns the block's run of the chip's page array.
func (c *chip) blockPages(blk, pagesPerBlock int) []pagemem.Page {
	return c.pages[blk*pagesPerBlock:][:pagesPerBlock]
}

// Device is the n-level NAND subsystem. Single-threaded over virtual time.
type Device struct {
	geo      Geometry
	timing   Timing
	enforce  bool // enforce the relaxed constraint set (always on; field kept for clarity)
	chips    []chip
	chanFree []sim.Time
	reads    []int64   // per chip
	programs [][]int64 // per chip, per level
	erases   []int64   // per chip

	// cause is the ambient attribution register (see nand.Device.SetCause),
	// kept per chip like the MLC device so channel shards never share a
	// register: the FTL brackets its GC/backup paths with SetCause (all
	// chips) or SetCauseChip (one chip), and every operation charges its busy
	// time to the cause in force on its chip. Pure accounting on the virtual
	// timeline; never changes timing.
	cause     []obs.Cause
	causeBusy [][obs.CauseCount]sim.Time

	// Reliability model (nil when off); relCounts is per chip.
	relCfg    *rel.Config
	relCounts []rel.Counts

	// Observability (nil when tracing is disabled).
	rec       *obs.Recorder
	histProg  *obs.Histogram
	histRead  *obs.Histogram
	histErase *obs.Histogram
	causeCtr  [obs.CauseCount]*obs.Counter
}

// NewDevice builds a device enforcing the generalized relaxed rules.
func NewDevice(g Geometry, t Timing) (*Device, error) {
	if err := g.Validate(); err != nil {
		return nil, err
	}
	if err := t.Validate(g.Levels); err != nil {
		return nil, err
	}
	d := &Device{
		geo:       g,
		timing:    t,
		enforce:   true,
		chips:     make([]chip, g.Chips()),
		chanFree:  make([]sim.Time, g.Channels),
		reads:     make([]int64, g.Chips()),
		programs:  make([][]int64, g.Chips()),
		erases:    make([]int64, g.Chips()),
		cause:     make([]obs.Cause, g.Chips()),
		causeBusy: make([][obs.CauseCount]sim.Time, g.Chips()),
	}
	for c := range d.programs {
		d.programs[c] = make([]int64, g.Levels)
	}
	perChip := g.BlocksPerChip * g.PagesPerBlock()
	pages := make([]pagemem.Page, g.Chips()*perChip)
	for c := range d.chips {
		blocks := make([]block, g.BlocksPerChip)
		for b := range blocks {
			blocks[b] = block{state: nlevel.NewState(g.Scheme()), inFlightLevel: -1}
		}
		d.chips[c].blocks = blocks
		d.chips[c].pages = pages[c*perChip:][:perChip:perChip]
	}
	return d, nil
}

// SetRecorder attaches an observability recorder: service-time histograms
// and per-cause busy counters in the recorder's registry. A nil recorder
// disables emission. The recorder only observes — timing and results are
// unchanged.
func (d *Device) SetRecorder(r *obs.Recorder) {
	d.rec = r
	reg := r.Registry()
	d.histProg = reg.Histogram("nandn.program_us")
	d.histRead = reg.Histogram("nandn.read_us")
	d.histErase = reg.Histogram("nandn.erase_us")
	for c := obs.Cause(0); c < obs.CauseCount; c++ {
		d.causeCtr[c] = reg.Counter(obs.BusyCounterName("nandn", c))
	}
}

// SetCause switches the ambient attribution cause on every chip and returns
// the previous one (save/restore discipline; see nand.Device.SetCause).
func (d *Device) SetCause(c obs.Cause) obs.Cause {
	prev := d.cause[0]
	for i := range d.cause {
		d.cause[i] = c
	}
	return prev
}

// SetCauseChip switches one chip's attribution cause, returning that chip's
// previous cause (the bracket for chip-scoped paths; see
// nand.Device.SetCauseChip).
func (d *Device) SetCauseChip(chipID int, c obs.Cause) obs.Cause {
	prev := d.cause[chipID]
	d.cause[chipID] = c
	return prev
}

// Cause returns the ambient attribution cause in force (chip 0's register;
// outside chip-scoped brackets all chips agree).
func (d *Device) Cause() obs.Cause { return d.cause[0] }

// CauseBusy returns the accumulated media busy time charged to each cause,
// summed over chips in chip order.
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

// chargeBusyCause attributes busy time to an explicit cause (the device's
// own retry latency is read_retry regardless of the issuing path).
func (d *Device) chargeBusyCause(chipID int, cause obs.Cause, dur sim.Time) {
	d.causeBusy[chipID][cause] += dur
	if d.rec != nil {
		d.causeCtr[cause].Add(int64(dur))
	}
}

// SetReliability enables (or, with nil, disables) the per-page BER model:
// reads of programmed pages get deterministic ECC outcomes with read-retry
// latency, exactly as on the MLC device. Pair the config's model with
// rel.DeriveNLevelModel at the device's bits-per-cell density.
func (d *Device) SetReliability(rc *rel.Config) error {
	if rc == nil {
		d.relCfg, d.relCounts = nil, nil
		return nil
	}
	if err := rc.Validate(); err != nil {
		return err
	}
	d.relCfg = rc
	d.relCounts = make([]rel.Counts, d.geo.Chips())
	return nil
}

// Reliability returns the active reliability configuration (nil when off).
func (d *Device) Reliability() *rel.Config { return d.relCfg }

// RelCounts returns aggregated reliability read outcomes, summed over chips
// in chip order. Zero value when the model is off.
func (d *Device) RelCounts() rel.Counts {
	var total rel.Counts
	for i := range d.relCounts {
		total.Add(d.relCounts[i])
	}
	return total
}

// Geometry returns the device shape.
func (d *Device) Geometry() Geometry { return d.geo }

// Timing returns the latency set.
func (d *Device) Timing() Timing { return d.timing }

// Programs returns per-level program counts, summed over chips.
func (d *Device) Programs() []int64 {
	total := make([]int64, d.geo.Levels)
	for c := range d.programs {
		for lvl, n := range d.programs[c] {
			total[lvl] += n
		}
	}
	return total
}

// Erases returns the erase count, summed over chips.
func (d *Device) Erases() int64 {
	var total int64
	for _, n := range d.erases {
		total += n
	}
	return total
}

// Reads returns the read count, summed over chips.
func (d *Device) Reads() int64 {
	var total int64
	for _, n := range d.reads {
		total += n
	}
	return total
}

func (d *Device) blockAt(chipID, blk int) (*block, error) {
	if chipID < 0 || chipID >= d.geo.Chips() || blk < 0 || blk >= d.geo.BlocksPerChip {
		return nil, fmt.Errorf("nandn: block chip%d/blk%d out of range", chipID, blk)
	}
	return &d.chips[chipID].blocks[blk], nil
}

// pageAt resolves a page address to its block, its page record and the
// record's index within the chip's page array (its oversize key).
func (d *Device) pageAt(a PageAddr) (*block, *pagemem.Page, int, error) {
	blk, err := d.blockAt(a.Chip, a.Block)
	if err != nil {
		return nil, nil, 0, err
	}
	s := d.geo.Scheme()
	if a.Page.WL < 0 || a.Page.WL >= s.WordLines || a.Page.Level < 0 || a.Page.Level >= s.Levels {
		return nil, nil, 0, fmt.Errorf("nandn: page %v out of range", a.Page)
	}
	key := a.Block*s.Pages() + s.Index(a.Page)
	return blk, &d.chips[a.Chip].pages[key], key, nil
}

// Program writes a page, enforcing the generalized relaxed order, and
// returns the completion time. An in-flight refinement is recorded for
// power-loss injection until AckProgram.
func (d *Device) Program(a PageAddr, data, spare []byte, now sim.Time) (sim.Time, error) {
	blk, pg, key, err := d.pageAt(a)
	if err != nil {
		return now, err
	}
	if err := nlevel.CheckRelaxed(blk.state, a.Page); err != nil {
		return now, err
	}
	if len(data) > d.geo.PageSizeBytes || len(spare) > d.geo.SpareBytes {
		return now, fmt.Errorf("nandn: payload/spare too large for %v", a)
	}
	ch := d.geo.ChannelOf(a.Chip)
	c := &d.chips[a.Chip]
	start := sim.MaxOf(now, sim.MaxOf(c.readyAt, d.chanFree[ch]))
	xferDone := start + d.timing.BusXfer
	done := xferDone + d.timing.Prog[a.Page.Level]
	d.chanFree[ch] = xferDone
	c.readyAt = done
	d.chargeBusy(a.Chip, done-start)
	if d.rec != nil {
		d.histProg.Record(int64(done - start))
	}

	blk.state.Mark(a.Page)
	pg.Store(&c.oversize, key, data, spare)
	if d.relCfg != nil {
		pg.ProgAt = done
	}
	d.programs[a.Chip][a.Page.Level]++

	if a.Page.Level > 0 {
		// Refinements are destructive to the word line's earlier bits
		// while in flight.
		blk.inFlightLevel = a.Page.Level
		blk.inFlightWL = a.Page.WL
	} else {
		blk.inFlightLevel = -1
	}
	return done, nil
}

// AckProgram marks the block's in-flight refinement power-safe.
func (d *Device) AckProgram(chipID, blk int) {
	if b, err := d.blockAt(chipID, blk); err == nil {
		b.inFlightLevel = -1
	}
}

// readPage performs the timing and validity checks shared by Read and
// ReadInto, returning the sensed payload and spare area as views of device
// memory.
func (d *Device) readPage(a PageAddr, now sim.Time) (data, spare []byte, done sim.Time, err error) {
	blk, pg, key, err := d.pageAt(a)
	if err != nil {
		return nil, nil, now, err
	}
	ch := d.geo.ChannelOf(a.Chip)
	c := &d.chips[a.Chip]
	start := sim.MaxOf(now, c.readyAt)
	// Reliability outcome before timing commits, so retry rounds extend the
	// sense phase (see nand.Device.readPage).
	var outcome rel.Outcome
	if rc := d.relCfg; rc != nil && pg.Intact() {
		blk.readCount++
		age := start - pg.ProgAt
		if age < 0 {
			age = 0
		}
		ber := rc.Model.BER(blk.eraseCount, age, blk.readCount)
		u := rc.Sample(a.Chip, a.Block, d.geo.Scheme().Index(a.Page), blk.readCount)
		outcome = rc.ReadOutcome(ber, d.geo.PageSizeBytes, u)
		rcs := &d.relCounts[a.Chip]
		rcs.Reads++
		if outcome.Corrected {
			rcs.Corrected++
		}
		if outcome.Retries > 0 {
			rcs.RetriedReads++
			rcs.RetryRounds += int64(outcome.Retries)
		}
		if outcome.Uncorrectable {
			rcs.Uncorrectable++
		}
	}
	retryDur := sim.Time(outcome.Retries) * d.timing.Read
	senseDone := start + d.timing.Read + retryDur
	xferStart := sim.MaxOf(senseDone, d.chanFree[ch])
	done = xferStart + d.timing.BusXfer
	d.chanFree[ch] = done
	c.readyAt = done
	d.chargeBusy(a.Chip, done-start-retryDur)
	if retryDur > 0 {
		d.chargeBusyCause(a.Chip, obs.CauseReadRetry, retryDur)
	}
	d.reads[a.Chip]++
	if d.rec != nil {
		d.histRead.Record(int64(done - start))
	}
	switch {
	case !pg.Has(pagemem.Programmed):
		return nil, nil, done, fmt.Errorf("%w: %v", ErrNotProgrammed, a)
	case pg.Has(pagemem.Corrupted):
		return nil, nil, done, fmt.Errorf("%w: %v", ErrUncorrectable, a)
	case outcome.Uncorrectable:
		return nil, nil, done, fmt.Errorf("%w: %v", rel.ErrUncorrectable, a)
	}
	data, spare = pg.Load(c.oversize, key)
	return data, spare, done, nil
}

// Read returns the page payload/spare and completion time.
func (d *Device) Read(a PageAddr, now sim.Time) (data, spare []byte, done sim.Time, err error) {
	data, spare, done, err = d.readPage(a, now)
	if err != nil {
		return nil, nil, done, err
	}
	return append([]byte(nil), data...), append([]byte(nil), spare...), done, nil
}

// PageBuf is a caller-owned destination for ReadInto; its backing arrays
// are reused across reads, so steady-state reads allocate nothing.
type PageBuf struct {
	Data, Spare []byte
}

// ReadInto is the zero-copy variant of Read: payload and spare land in
// buf's reusable backing arrays. Timing, counters and error behaviour
// match Read; on error buf's slices are truncated to zero length.
func (d *Device) ReadInto(a PageAddr, buf *PageBuf, now sim.Time) (done sim.Time, err error) {
	data, spare, done, err := d.readPage(a, now)
	if err != nil {
		buf.Data, buf.Spare = buf.Data[:0], buf.Spare[:0]
		return done, err
	}
	buf.Data = append(buf.Data[:0], data...)
	buf.Spare = append(buf.Spare[:0], spare...)
	return done, nil
}

// Erase resets a block.
func (d *Device) Erase(chipID, blk int, now sim.Time) (sim.Time, error) {
	b, err := d.blockAt(chipID, blk)
	if err != nil {
		return now, err
	}
	c := &d.chips[chipID]
	start := sim.MaxOf(now, c.readyAt)
	done := start + d.timing.Erase
	c.readyAt = done
	d.chargeBusy(chipID, done-start)
	if d.rec != nil {
		d.histErase.Record(int64(done - start))
	}
	// A never-programmed block is already all zero (see nand.Device.Erase);
	// otherwise one store per page.
	if b.state.Programmed() != 0 {
		pages := c.blockPages(blk, d.geo.PagesPerBlock())
		for i := range pages {
			pages[i].Flags = 0
		}
		b.state.Reset()
	}
	b.eraseCount++
	b.readCount = 0
	b.inFlightLevel = -1
	d.erases[chipID]++
	return done, nil
}

// InjectPowerLoss simulates a power cut at the block: an in-flight
// refinement at level i destroys pages T_0(k)..T_(i-1)(k) of its word line
// and leaves the interrupted page itself uncorrectable. It reports how many
// pages were corrupted.
func (d *Device) InjectPowerLoss(chipID, blk int) int {
	b, err := d.blockAt(chipID, blk)
	if err != nil || b.inFlightLevel < 1 {
		return 0
	}
	s := d.geo.Scheme()
	pages := d.chips[chipID].blockPages(blk, s.Pages())
	n := 0
	for lvl := 0; lvl <= b.inFlightLevel; lvl++ {
		pg := &pages[s.Index(nlevel.Page{WL: b.inFlightWL, Level: lvl})]
		if pg.Intact() {
			pg.Flags |= pagemem.Corrupted
			n++
		}
	}
	b.inFlightLevel = -1
	return n
}

// BlockProgrammed returns how many pages of the block are programmed.
func (d *Device) BlockProgrammed(chipID, blk int) int {
	b, err := d.blockAt(chipID, blk)
	if err != nil {
		return 0
	}
	return b.state.Programmed()
}

// EraseCount returns a block's wear.
func (d *Device) EraseCount(chipID, blk int) int {
	b, err := d.blockAt(chipID, blk)
	if err != nil {
		return 0
	}
	return b.eraseCount
}

// WearStats summarizes per-block erase counts (mirror of nand.WearStats).
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
	for c := range d.chips {
		for b := range d.chips[c].blocks {
			e := d.chips[c].blocks[b].eraseCount
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
	}
	if n > 0 {
		st.Mean = float64(total) / float64(n)
	}
	if st.Mean > 0 {
		st.Imbalance = float64(st.Max) / st.Mean
	}
	return st
}
