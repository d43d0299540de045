package nand

import (
	"errors"
	"testing"
	"unsafe"

	"flexftl/internal/core"
	"flexftl/internal/obs"
	"flexftl/internal/rel"
	"flexftl/internal/sim"
)

// relDevice builds a test device with the reliability model on.
func relDevice(t *testing.T, rc rel.Config) *Device {
	t.Helper()
	cfg := Config{Geometry: TestGeometry(), Timing: DefaultTiming(), Reliability: &rc}
	d, err := NewDevice(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// stress erases the block n times and programs its first LSB page, returning
// the program completion time.
func stress(t *testing.T, d *Device, blk BlockAddr, erases int) sim.Time {
	t.Helper()
	now := sim.Time(0)
	for i := 0; i < erases; i++ {
		var err error
		now, err = d.Erase(blk, now)
		if err != nil {
			t.Fatal(err)
		}
	}
	a := PageAddr{BlockAddr: blk, Page: core.Page{WL: 0, Type: core.LSB}}
	done, err := d.Program(a, []byte("payload"), nil, now)
	if err != nil {
		t.Fatal(err)
	}
	return done
}

// TestRelFreshReadsClean: a fresh device reads back clean — no corrections,
// no retries, and completion time identical to a reliability-off device.
func TestRelFreshReadsClean(t *testing.T) {
	d := relDevice(t, rel.DefaultConfig(1))
	off, err := NewDevice(Config{Geometry: TestGeometry(), Timing: DefaultTiming()})
	if err != nil {
		t.Fatal(err)
	}
	a := PageAddr{BlockAddr: BlockAddr{Chip: 0, Block: 0}, Page: core.Page{WL: 0, Type: core.LSB}}
	for _, dev := range []*Device{d, off} {
		if _, err := dev.Program(a, []byte("x"), nil, 0); err != nil {
			t.Fatal(err)
		}
	}
	var buf, bufOff PageBuf
	for i := 0; i < 200; i++ {
		done, err := d.ReadInto(a, &buf, 0)
		if err != nil {
			t.Fatalf("read %d: %v", i, err)
		}
		doneOff, err := off.ReadInto(a, &bufOff, 0)
		if err != nil {
			t.Fatal(err)
		}
		if done != doneOff {
			t.Fatalf("read %d: reliability-on completion %d != off %d on a clean read", i, done, doneOff)
		}
	}
	c := d.RelCounts()
	if c.Reads != 200 || c.Corrected != 0 || c.RetriedReads != 0 || c.Uncorrectable != 0 {
		t.Errorf("fresh reads should all be clean, got %+v", c)
	}
}

// TestRelRetriesExtendLatency: at worst-case stress with a zero-strength
// fast path, every corrected read retries and each retry round adds exactly
// one array read of latency.
func TestRelRetriesExtendLatency(t *testing.T) {
	rc := rel.DefaultConfig(2)
	rc.FastCorrectableBits = 0 // any bit error engages the retry ladder
	d := relDevice(t, rc)
	blk := BlockAddr{Chip: 0, Block: 0}
	progDone := stress(t, d, blk, 3000)
	a := PageAddr{BlockAddr: blk, Page: core.Page{WL: 0, Type: core.LSB}}
	at := progDone + rel.Year
	var buf PageBuf
	base := d.Timing().Read + d.Timing().BusXfer
	prevCounts := d.RelCounts()
	for i := 0; i < 400; i++ {
		start := sim.MaxOf(at, d.ChipReadyAt(blk.Chip))
		done, err := d.ReadInto(a, &buf, at)
		if err != nil {
			t.Fatalf("read %d: %v (worst case must stay correctable)", i, err)
		}
		c := d.RelCounts()
		rounds := c.RetryRounds - prevCounts.RetryRounds
		if want := start + base + sim.Time(rounds)*d.Timing().Read; done != want {
			t.Fatalf("read %d: %d retry rounds, completion %d, want %d", i, rounds, done, want)
		}
		prevCounts = c
	}
	c := d.RelCounts()
	if c.Corrected == 0 {
		t.Error("worst-case stress produced no corrected reads")
	}
	if c.RetriedReads != c.Corrected {
		t.Errorf("with fast strength 0 every corrected read must retry: %+v", c)
	}
	if c.Uncorrectable != 0 {
		t.Errorf("worst case must stay correctable at default ECC, got %+v", c)
	}
	busy := d.CauseBusy()
	if busy[obs.CauseReadRetry] != sim.Time(c.RetryRounds)*d.Timing().Read {
		t.Errorf("read_retry busy %d != %d rounds x tRead", busy[obs.CauseReadRetry], c.RetryRounds)
	}
}

// TestRelUncorrectableBeyondBudget: stress far past the ECC knee makes reads
// uncorrectable — the error is rel.ErrUncorrectable (not the power-loss
// sentinel), full ladder latency is paid, and counters record the loss.
func TestRelUncorrectableBeyondBudget(t *testing.T) {
	rc := rel.DefaultConfig(3)
	d := relDevice(t, rc)
	blk := BlockAddr{Chip: 0, Block: 1}
	progDone := stress(t, d, blk, 5000)
	a := PageAddr{BlockAddr: blk, Page: core.Page{WL: 0, Type: core.LSB}}
	at := progDone + 2*rel.Year
	start := sim.MaxOf(at, d.ChipReadyAt(blk.Chip))
	var buf PageBuf
	done, err := d.ReadInto(a, &buf, at)
	if !errors.Is(err, rel.ErrUncorrectable) {
		t.Fatalf("want rel.ErrUncorrectable, got %v", err)
	}
	if errors.Is(err, ErrUncorrectable) {
		t.Error("reliability loss must not alias the power-loss sentinel")
	}
	want := start + d.Timing().Read*sim.Time(1+rc.MaxRetries) + d.Timing().BusXfer
	if done != want {
		t.Errorf("uncorrectable read completion %d, want full-ladder %d", done, want)
	}
	if c := d.RelCounts(); c.Uncorrectable != 1 {
		t.Errorf("counters: %+v", c)
	}
}

// TestRelDeterministic: two identical devices see identical outcomes.
func TestRelDeterministic(t *testing.T) {
	run := func() rel.Counts {
		d := relDevice(t, rel.DefaultConfig(9))
		blk := BlockAddr{Chip: 1, Block: 2}
		progDone := stress(t, d, blk, 3000)
		a := PageAddr{BlockAddr: blk, Page: core.Page{WL: 0, Type: core.LSB}}
		var buf PageBuf
		for i := 0; i < 300; i++ {
			if _, err := d.ReadInto(a, &buf, progDone+rel.Year); err != nil {
				t.Fatal(err)
			}
		}
		return d.RelCounts()
	}
	if a, b := run(), run(); a != b {
		t.Errorf("outcomes differ across identical runs: %+v vs %+v", a, b)
	}
}

// TestRelPredictAndRetire covers the policy accessors: block BER prediction
// grows with stress, fresh BER crosses the budget at high wear, and a
// retired block rejects programs.
func TestRelPredictAndRetire(t *testing.T) {
	rc := rel.DefaultConfig(4)
	d := relDevice(t, rc)
	blk := BlockAddr{Chip: 0, Block: 3}
	if got := d.PredictBlockBER(blk, 0); got != 0 {
		t.Errorf("empty block predicts BER %g, want 0", got)
	}
	progDone := stress(t, d, blk, 3000)
	now := d.PredictBlockBER(blk, progDone)
	aged := d.PredictBlockBER(blk, progDone+rel.Year)
	if !(0 < now && now < aged) {
		t.Errorf("prediction not growing with age: now %g, aged %g", now, aged)
	}
	budget := rc.BERBudget(d.Geometry().PageSizeBytes, 1e-4)
	if fresh := d.PredictFreshBER(blk); fresh >= budget {
		t.Errorf("3K-cycle fresh BER %g already over budget %g", fresh, budget)
	}
	worn := BlockAddr{Chip: 0, Block: 4}
	stress(t, d, worn, 12000)
	if fresh := d.PredictFreshBER(worn); fresh < budget {
		t.Errorf("12K-cycle fresh BER %g should exceed budget %g", fresh, budget)
	}
	if err := d.RetireBlock(worn); err != nil {
		t.Fatal(err)
	}
	a := PageAddr{BlockAddr: worn, Page: core.Page{WL: 1, Type: core.LSB}}
	if _, err := d.Program(a, []byte("x"), nil, 0); !errors.Is(err, ErrBadBlock) {
		t.Errorf("program on retired block: %v, want ErrBadBlock", err)
	}
	if _, err := d.Erase(worn, 0); !errors.Is(err, ErrBadBlock) {
		t.Errorf("erase on retired block: %v, want ErrBadBlock", err)
	}
}

// TestRetentionClockOnlyWithModel: the per-page retention clock exists only
// on a device with a BER model, which allocates exactly one array for it —
// every chip's clock is its run of that array, indexed like its pages.
func TestRetentionClockOnlyWithModel(t *testing.T) {
	plain, err := NewDevice(Config{Geometry: TestGeometry(), Timing: DefaultTiming()})
	if err != nil {
		t.Fatal(err)
	}
	for c := range plain.chips {
		if plain.chips[c].progAt != nil {
			t.Fatalf("chip %d of a device without a BER model has a retention clock", c)
		}
	}
	d := relDevice(t, rel.DefaultConfig(1))
	perChip := len(d.chips[0].pages)
	base := uintptr(unsafe.Pointer(&d.chips[0].progAt[0]))
	for c := range d.chips {
		run := d.chips[c].progAt
		at := uintptr(unsafe.Pointer(&run[0]))
		if len(run) != perChip || cap(run) != perChip || at != base+uintptr(c*perChip)*unsafe.Sizeof(run[0]) {
			t.Fatalf("chip %d's clock (%d pages at +%d B) is not run %d of one device-wide array of %d-page runs",
				c, len(run), at-base, c, perChip)
		}
	}
}
