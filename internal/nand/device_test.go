package nand

import (
	"bytes"
	"errors"
	"fmt"
	"testing"

	"flexftl/internal/alloctest"
	"flexftl/internal/core"
	"flexftl/internal/obs"
	"flexftl/internal/rng"
	"flexftl/internal/sim"
)

func testDevice(t *testing.T, rules core.RuleSet) *Device {
	t.Helper()
	d, err := NewDevice(Config{Geometry: TestGeometry(), Timing: DefaultTiming(), Rules: rules})
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// read is ReadInto through a fresh buffer, for the tests that keep or compare
// the payload: it returns what was read and the completion time.
func read(d *Device, a PageAddr, now sim.Time) (data, spare []byte, done sim.Time, err error) {
	var buf PageBuf
	done, err = d.ReadInto(a, &buf, now)
	return buf.Data, buf.Spare, done, err
}

func addr(chip, block, wl int, typ core.PageType) PageAddr {
	return PageAddr{BlockAddr: BlockAddr{Chip: chip, Block: block}, Page: core.Page{WL: wl, Type: typ}}
}

// levelConfig is the RPS test device at the given bits per cell: the paper's
// MLC latencies, each finer level twice as slow as the one before it.
func levelConfig(levels int) Config {
	g, tm := TestGeometry(), DefaultTiming()
	g.Levels = levels
	for l := 2; l < levels; l++ {
		tm.ProgFiner[l-2] = 2 * tm.Prog(core.PageType(l-1))
	}
	return Config{Geometry: g, Timing: tm, Rules: core.RPS}
}

// everyLevels runs f on a fresh RPS device per modelled cell density — MLC,
// TLC and QLC are rows of the same tests, not separate devices.
func everyLevels(t *testing.T, f func(t *testing.T, d *Device)) {
	everyLevelsWith(t, func(*Config) {}, f)
}

// everyLevelsWith is everyLevels with the configuration adjusted first.
func everyLevelsWith(t *testing.T, adjust func(*Config), f func(t *testing.T, d *Device)) {
	for levels := 2; levels <= MaxLevels; levels++ {
		t.Run(fmt.Sprintf("levels=%d", levels), func(t *testing.T) {
			cfg := levelConfig(levels)
			adjust(&cfg)
			d, err := NewDevice(cfg)
			if err != nil {
				t.Fatal(err)
			}
			f(t, d)
		})
	}
}

// finest returns the device's finest page level.
func finest(d *Device) core.PageType { return core.PageType(d.Geometry().BitsPerCell() - 1) }

// fillThrough programs the block in n-phase order up to and including page
// last, leaving last's program unacknowledged.
func fillThrough(t *testing.T, d *Device, blk BlockAddr, last core.Page) {
	t.Helper()
	for _, p := range core.RelaxedFullOrder(d.Geometry().Scheme()) {
		mustProgram(t, d, PageAddr{BlockAddr: blk, Page: p}, 0)
		if p == last {
			return
		}
	}
	t.Fatalf("%v is not a page of the block", last)
}

// wantUncorrectable reads the page and expects the power-cut error.
func wantUncorrectable(t *testing.T, d *Device, a PageAddr) {
	t.Helper()
	if _, _, _, err := read(d, a, 0); !errors.Is(err, ErrUncorrectable) {
		t.Errorf("%v read err = %v, want ErrUncorrectable", a, err)
	}
}

func TestNewDeviceRejectsBadConfig(t *testing.T) {
	if _, err := NewDevice(Config{Geometry: Geometry{}, Timing: DefaultTiming()}); err == nil {
		t.Error("zero geometry accepted")
	}
	if _, err := NewDevice(Config{Geometry: TestGeometry(), Timing: Timing{}}); err == nil {
		t.Error("zero timing accepted")
	}
	for _, levels := range []int{-1, 1, MaxLevels + 1} {
		cfg := levelConfig(2)
		cfg.Geometry.Levels = levels
		if _, err := NewDevice(cfg); err == nil {
			t.Errorf("%d levels accepted", levels)
		}
	}
	// A TLC geometry needs a latency for its third level.
	cfg := levelConfig(3)
	cfg.Timing = DefaultTiming()
	if _, err := NewDevice(cfg); err == nil {
		t.Error("TLC geometry with MLC timing accepted")
	}
	// Levels 0 is the paper's MLC.
	cfg = levelConfig(2)
	cfg.Geometry.Levels = 0
	d, err := NewDevice(cfg)
	if err != nil || d.Geometry().PagesPerBlock() != 2*d.Geometry().WordLinesPerBlock {
		t.Errorf("zero-value Levels: %v, %d pages per block", err, d.Geometry().PagesPerBlock())
	}
}

func TestNilRulesDefaultsToFPS(t *testing.T) {
	d := testDevice(t, nil)
	if d.Rules().Name() != "FPS" {
		t.Errorf("default rules = %s, want FPS", d.Rules().Name())
	}
}

// TestLatencyAsymmetry reproduces the Figure 1 premise — an MSB program
// takes 4x the LSB program on an idle chip — and its continuation on finer
// cells: every level's program costs its own latency and is counted under
// its own level.
func TestLatencyAsymmetry(t *testing.T) {
	everyLevels(t, func(t *testing.T, d *Device) {
		tm, g := d.Timing(), d.Geometry()
		now := sim.Time(0)
		for _, p := range core.RelaxedFullOrder(g.Scheme()) {
			done, err := d.Program(PageAddr{Page: p}, []byte("a"), nil, now)
			if err != nil {
				t.Fatal(err)
			}
			if got, want := done-now, tm.BusXfer+tm.Prog(p.Type); got != want {
				t.Fatalf("%v latency = %v, want %v", p, got, want)
			}
			now = done
		}
		if tm.Prog(core.MSB) != 4*tm.Prog(core.LSB) {
			t.Errorf("MSB/LSB latency = %v/%v, want 4x", tm.Prog(core.MSB), tm.Prog(core.LSB))
		}
		c := d.Counts()
		for level, n := range c.ProgramsByLevel(g.BitsPerCell()) {
			if n != int64(g.WordLinesPerBlock) {
				t.Errorf("level %d counted %d programs, want %d", level, n, g.WordLinesPerBlock)
			}
		}
		if c.ProgramsLSB != int64(g.WordLinesPerBlock) || c.Programs() != int64(g.PagesPerBlock()) {
			t.Errorf("counts = %+v: LSB must be level 0, MSB every refinement", c)
		}
	})
}

func TestProgramEnforcesRules(t *testing.T) {
	d := testDevice(t, core.RPS)
	// MSB(0) first must fail under RPS (needs LSB(0), LSB(1)).
	if _, err := d.Program(addr(0, 0, 0, core.MSB), nil, nil, 0); err == nil {
		t.Fatal("illegal program accepted")
	}
	var cv *core.ConstraintViolation
	_, err := d.Program(addr(0, 0, 1, core.LSB), nil, nil, 0)
	if !errors.As(err, &cv) || cv.Constraint != 1 {
		t.Fatalf("expected Constraint 1 violation, got %v", err)
	}
	// FPS device rejects RPSfull order at the third LSB.
	df := testDevice(t, core.FPS)
	mustProgram(t, df, addr(0, 0, 0, core.LSB), 0)
	mustProgram(t, df, addr(0, 0, 1, core.LSB), 0)
	_, err = df.Program(addr(0, 0, 2, core.LSB), nil, nil, 0)
	if !errors.As(err, &cv) || cv.Constraint != 4 {
		t.Fatalf("FPS device must enforce Constraint 4, got %v", err)
	}
	// An RPS device accepts the same program, and the whole n-phase order
	// at any cell density.
	everyLevels(t, func(t *testing.T, d *Device) {
		blk := BlockAddr{Chip: 0, Block: 0}
		if _, err := d.Program(PageAddr{BlockAddr: blk, Page: core.Page{Type: finest(d)}}, nil, nil, 0); !errors.As(err, &cv) || cv.Constraint != 3 {
			t.Fatalf("refinement of an erased word line: %v, want Constraint 3", err)
		}
		fillThrough(t, d, blk, core.Page{WL: d.Geometry().WordLinesPerBlock - 1, Type: finest(d)})
		if d.BlockProgrammedPages(blk) != d.Geometry().PagesPerBlock() {
			t.Error("block not full after the n-phase fill")
		}
	})
}

func mustProgram(t *testing.T, d *Device, a PageAddr, now sim.Time) sim.Time {
	t.Helper()
	done, err := d.Program(a, []byte{byte(a.Page.WL)}, nil, now)
	if err != nil {
		t.Fatalf("program %v: %v", a, err)
	}
	return done
}

func TestReadBackPayloadAndSpare(t *testing.T) {
	d := testDevice(t, core.RPS)
	data := []byte("hello payload") // with the spare, inside the inline slot
	spare := []byte{0xde, 0xad}
	if _, err := d.Program(addr(0, 0, 0, core.LSB), data, spare, 0); err != nil {
		t.Fatal(err)
	}
	got, gotSpare, done, err := read(d, addr(0, 0, 0, core.LSB), 0)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) || !bytes.Equal(gotSpare, spare) {
		t.Error("read back mismatch")
	}
	if done <= 0 {
		t.Error("read completion not after start")
	}
	// Mutating the returned slice must not affect the stored copy.
	got[0] = 'X'
	got2, _, _, _ := read(d, addr(0, 0, 0, core.LSB), done)
	if got2[0] != 'h' {
		t.Error("Read returned aliased storage")
	}
}

func TestReadErasedPage(t *testing.T) {
	d := testDevice(t, core.RPS)
	_, _, _, err := read(d, addr(0, 0, 0, core.LSB), 0)
	if !errors.Is(err, ErrNotProgrammed) {
		t.Errorf("err = %v, want ErrNotProgrammed", err)
	}
}

func TestPayloadTooLarge(t *testing.T) {
	d := testDevice(t, core.RPS)
	big := make([]byte, TestGeometry().PageSizeBytes+1)
	if _, err := d.Program(addr(0, 0, 0, core.LSB), big, nil, 0); err == nil {
		t.Error("oversized payload accepted")
	}
	spare := make([]byte, TestGeometry().SpareBytes+1)
	if _, err := d.Program(addr(0, 0, 0, core.LSB), nil, spare, 0); err == nil {
		t.Error("oversized spare accepted")
	}
}

func TestChipSerialization(t *testing.T) {
	d := testDevice(t, core.RPS)
	tm := d.Timing()
	// Two programs to the same chip issued at t=0 must serialize.
	d1 := mustProgram(t, d, addr(0, 0, 0, core.LSB), 0)
	d2 := mustProgram(t, d, addr(0, 0, 1, core.LSB), 0)
	if d2 <= d1 {
		t.Errorf("same-chip programs overlapped: %v then %v", d1, d2)
	}
	want := 2 * (tm.BusXfer + tm.ProgLSB)
	if d2 != want {
		t.Errorf("second program done = %v, want %v", d2, want)
	}
}

func TestDifferentChannelsParallel(t *testing.T) {
	g := TestGeometry()
	d := testDevice(t, core.RPS)
	tm := d.Timing()
	otherChip := g.ChipsPerChannel // first chip of channel 1
	d1 := mustProgram(t, d, addr(0, 0, 0, core.LSB), 0)
	d2 := mustProgram(t, d, addr(otherChip, 0, 0, core.LSB), 0)
	if d1 != d2 || d1 != tm.BusXfer+tm.ProgLSB {
		t.Errorf("cross-channel programs not parallel: %v vs %v", d1, d2)
	}
}

func TestSameChannelBusContention(t *testing.T) {
	everyLevels(t, func(t *testing.T, d *Device) {
		tm := d.Timing()
		// Chips 0 and 1 share channel 0: second transfer waits for the bus
		// but the cell programs overlap.
		d1 := mustProgram(t, d, addr(0, 0, 0, core.LSB), 0)
		d2 := mustProgram(t, d, addr(1, 0, 0, core.LSB), 0)
		if d1 != tm.BusXfer+tm.ProgLSB {
			t.Errorf("first done = %v", d1)
		}
		if want := 2*tm.BusXfer + tm.ProgLSB; d2 != want {
			t.Errorf("second done = %v, want %v (bus serialized, cells parallel)", d2, want)
		}
		// A chip on the other channel is fully parallel.
		if d3 := mustProgram(t, d, addr(d.Geometry().ChipsPerChannel, 0, 0, core.LSB), 0); d3 != d1 {
			t.Errorf("cross-channel program not parallel: %v vs %v", d3, d1)
		}
	})
}

func TestEraseResetsBlock(t *testing.T) {
	d := testDevice(t, core.RPS)
	a := addr(0, 0, 0, core.LSB)
	mustProgram(t, d, a, 0)
	if !d.IsProgrammed(a) {
		t.Fatal("page not programmed")
	}
	done, err := d.Erase(BlockAddr{Chip: 0, Block: 0}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if done <= 0 {
		t.Error("erase has zero latency")
	}
	if d.IsProgrammed(a) {
		t.Error("page survived erase")
	}
	if d.EraseCount(BlockAddr{Chip: 0, Block: 0}) != 1 {
		t.Error("erase count not incremented")
	}
	// The page can be programmed again after the erase.
	mustProgram(t, d, a, done)
}

func TestEraseBudgetRetiresBlock(t *testing.T) {
	cfg := Config{Geometry: TestGeometry(), Timing: DefaultTiming(), Rules: core.RPS, EraseBudget: 2}
	d, err := NewDevice(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ba := BlockAddr{Chip: 0, Block: 0}
	now := sim.Time(0)
	for i := 0; i < 2; i++ {
		now, err = d.Erase(ba, now)
		if err != nil {
			t.Fatal(err)
		}
	}
	if _, err := d.Erase(ba, now); !errors.Is(err, ErrBadBlock) {
		t.Errorf("worn block erase err = %v, want ErrBadBlock", err)
	}
	if _, err := d.Program(addr(0, 0, 0, core.LSB), nil, nil, now); !errors.Is(err, ErrBadBlock) {
		t.Errorf("worn block program err = %v, want ErrBadBlock", err)
	}
}

func TestOpCounts(t *testing.T) {
	everyLevels(t, func(t *testing.T, d *Device) {
		mustProgram(t, d, addr(0, 0, 0, core.LSB), 0)
		mustProgram(t, d, addr(0, 0, 1, core.LSB), 0)
		mustProgram(t, d, addr(0, 0, 0, core.MSB), 0)
		if _, _, _, err := read(d, addr(0, 0, 0, core.LSB), 0); err != nil {
			t.Fatal(err)
		}
		if _, err := d.Erase(BlockAddr{Chip: 0, Block: 1}, 0); err != nil {
			t.Fatal(err)
		}
		c := d.Counts()
		if c.ProgramsLSB != 2 || c.ProgramsMSB != 1 || c.Reads != 1 || c.Erases != 1 {
			t.Errorf("counts = %+v", c)
		}
		if c.Programs() != 3 {
			t.Errorf("Programs() = %d", c.Programs())
		}
		if d.TotalErases() != 1 {
			t.Errorf("TotalErases() = %d", d.TotalErases())
		}
	})
}

func TestWearStats(t *testing.T) {
	everyLevels(t, func(t *testing.T, d *Device) {
		if w := d.Wear(); w.Min != 0 || w.Max != 0 || w.Mean != 0 || w.Imbalance != 0 {
			t.Errorf("fresh device wear = %+v", w)
		}
		now := sim.Time(0)
		var err error
		for i := 0; i < 3; i++ {
			now, err = d.Erase(BlockAddr{Chip: 0, Block: 0}, now)
			if err != nil {
				t.Fatal(err)
			}
		}
		if _, err := d.Erase(BlockAddr{Chip: 0, Block: 1}, now); err != nil {
			t.Fatal(err)
		}
		w := d.Wear()
		if w.Min != 0 || w.Max != 3 {
			t.Errorf("wear min/max = %d/%d", w.Min, w.Max)
		}
		wantMean := 4.0 / float64(d.Geometry().TotalBlocks())
		if w.Mean != wantMean {
			t.Errorf("wear mean = %v, want %v", w.Mean, wantMean)
		}
		if w.Imbalance != 3/wantMean {
			t.Errorf("imbalance = %v", w.Imbalance)
		}
	})
}

// The destructive-program window means one thing at every cell density: it
// is per chip, opened by a refinement program, and closed only by
// AckProgram, a newer refinement on the chip, or an erase on the chip. The
// tests below are its rows.

// TestPowerLossDuringMSBProgram: a cut during an unacknowledged level-i
// program destroys T_0..T_i of its word line and nothing else.
func TestPowerLossDuringMSBProgram(t *testing.T) {
	everyLevels(t, func(t *testing.T, d *Device) {
		for top := core.MSB; top <= finest(d); top++ {
			blk := BlockAddr{Chip: 0, Block: int(top)}
			fillThrough(t, d, blk, core.Page{WL: 0, Type: top})
			if w, open := d.OpenMSBWindow(0); !open || w != (PageAddr{BlockAddr: blk, Page: core.Page{WL: 0, Type: top}}) {
				t.Fatalf("window = %v (open=%v), want %v(0) of %v", w, open, top, blk)
			}
			if !d.InjectPowerLoss(blk) {
				t.Fatalf("power loss found no in-flight %v program", top)
			}
			for l := core.LSB; l <= top; l++ {
				wantUncorrectable(t, d, PageAddr{BlockAddr: blk, Page: core.Page{WL: 0, Type: l}})
			}
			// The next word line is unaffected, at every programmed level.
			for l := core.LSB; l < top; l++ {
				if _, _, _, err := read(d, PageAddr{BlockAddr: blk, Page: core.Page{WL: 1, Type: l}}, 0); err != nil {
					t.Errorf("%v(1) damaged by a cut on word line 0: %v", l, err)
				}
			}
			if d.InjectPowerLoss(blk) {
				t.Error("a second cut found the window still open")
			}
		}
	})
}

func TestAckProtectsAgainstPowerLoss(t *testing.T) {
	everyLevels(t, func(t *testing.T, d *Device) {
		blk := BlockAddr{Chip: 0, Block: 0}
		fillThrough(t, d, blk, core.Page{WL: 0, Type: finest(d)})
		d.AckProgram(blk)
		if d.InjectPowerLoss(blk) {
			t.Error("acknowledged refinement still vulnerable")
		}
		if _, _, _, err := read(d, addr(0, 0, 0, core.LSB), 0); err != nil {
			t.Errorf("LSB damaged after safe completion: %v", err)
		}
	})
}

func TestLSBProgramOpensNoWindow(t *testing.T) {
	// A power cut while only LSB programs are in flight loses nothing that
	// was previously durable (LSB programming is not destructive to other
	// pages).
	everyLevels(t, func(t *testing.T, d *Device) {
		mustProgram(t, d, addr(0, 0, 0, core.LSB), 0)
		if d.InjectPowerLoss(BlockAddr{Chip: 0, Block: 0}) {
			t.Error("LSB program flagged as destructive")
		}
		if _, open := d.OpenMSBWindow(0); open {
			t.Error("LSB program opened a destructive window")
		}
	})
}

func TestLSBProgramKeepsWindowOpen(t *testing.T) {
	// Regression: an LSB program after an unacknowledged refinement must
	// not close the destructive window, in the window's block or elsewhere
	// on the chip — that would hide the power-loss hazard under interleaved
	// orders. The window survives until AckProgram.
	everyLevels(t, func(t *testing.T, d *Device) {
		mustProgram(t, d, addr(0, 0, 0, core.LSB), 0)
		mustProgram(t, d, addr(0, 0, 1, core.LSB), 0)
		mustProgram(t, d, addr(0, 0, 0, core.MSB), 0)
		mustProgram(t, d, addr(0, 0, 2, core.LSB), 0) // same block
		mustProgram(t, d, addr(0, 1, 0, core.LSB), 0) // elsewhere on the chip
		if w, open := d.OpenMSBWindow(0); !open || w != addr(0, 0, 0, core.MSB) {
			t.Fatalf("window after interleaved LSBs = %v (open=%v), want MSB(0) open", w, open)
		}
		if !d.InjectPowerLoss(BlockAddr{Chip: 0, Block: 0}) {
			t.Fatal("power cut found no window despite unacked MSB program")
		}
		wantUncorrectable(t, d, addr(0, 0, 0, core.LSB))
		// The interleaved LSB itself is unharmed.
		if _, _, _, err := read(d, addr(0, 0, 2, core.LSB), 0); err != nil {
			t.Errorf("interleaved LSB damaged: %v", err)
		}
	})
}

func TestNewerMSBProgramSupersedesWindow(t *testing.T) {
	// The chip serializes programs, so a second refinement means the first
	// completed; the window moves to the newest one — within a block or
	// across two blocks of the chip, which can never both hold a window.
	everyLevels(t, func(t *testing.T, d *Device) {
		older, newer := BlockAddr{Chip: 0, Block: 0}, BlockAddr{Chip: 0, Block: 1}
		fillThrough(t, d, older, core.Page{WL: 1, Type: core.MSB})
		if w, open := d.OpenMSBWindow(0); !open || w != addr(0, 0, 1, core.MSB) {
			t.Fatalf("window = %v (open=%v), want MSB(1) of block 0", w, open)
		}
		fillThrough(t, d, newer, core.Page{WL: 0, Type: finest(d)})
		if d.InjectPowerLoss(older) {
			t.Error("block 0 still holds a window after a newer refinement on its chip")
		}
		if !d.InjectPowerLoss(newer) {
			t.Fatal("no injection on the newest refinement")
		}
		// Only the newest word line is lost.
		wantUncorrectable(t, d, addr(0, 1, 0, core.LSB))
		for wl := 0; wl <= 1; wl++ {
			if _, _, _, err := read(d, addr(0, 0, wl, core.LSB), 0); err != nil {
				t.Errorf("LSB(%d) of the completed block damaged: %v", wl, err)
			}
		}
		// Another chip keeps its own window.
		fillThrough(t, d, BlockAddr{Chip: 1, Block: 0}, core.Page{WL: 0, Type: core.MSB})
		fillThrough(t, d, BlockAddr{Chip: 0, Block: 2}, core.Page{WL: 0, Type: core.MSB})
		if !d.InjectPowerLoss(BlockAddr{Chip: 1, Block: 0}) {
			t.Error("a refinement on chip 0 closed chip 1's window")
		}
	})
}

func TestEraseClosesChipWindow(t *testing.T) {
	// The erase barrier: an erase anywhere on the chip serialized after the
	// pending refinement, so that program's destructive transient is over.
	everyLevels(t, func(t *testing.T, d *Device) {
		fillThrough(t, d, BlockAddr{Chip: 0, Block: 0}, core.Page{WL: 0, Type: finest(d)})
		if _, err := d.Erase(BlockAddr{Chip: 0, Block: 1}, 0); err != nil {
			t.Fatal(err)
		}
		if _, open := d.OpenMSBWindow(0); open {
			t.Error("window survived an erase on the same chip")
		}
		if d.InjectPowerLoss(BlockAddr{Chip: 0, Block: 0}) {
			t.Error("power cut corrupted pages after the erase barrier")
		}
	})
}

func TestAckOtherBlockLeavesWindowOpen(t *testing.T) {
	everyLevels(t, func(t *testing.T, d *Device) {
		fillThrough(t, d, BlockAddr{Chip: 0, Block: 0}, core.Page{WL: 0, Type: finest(d)})
		d.AckProgram(BlockAddr{Chip: 0, Block: 5}) // wrong block: no-op
		if _, open := d.OpenMSBWindow(0); !open {
			t.Error("ack of an unrelated block closed the window")
		}
	})
}

func TestCorruptPage(t *testing.T) {
	d := testDevice(t, core.RPS)
	a := addr(0, 0, 0, core.LSB)
	if err := d.CorruptPage(a); err == nil {
		t.Error("corrupting erased page succeeded")
	}
	mustProgram(t, d, a, 0)
	if err := d.CorruptPage(a); err != nil {
		t.Fatal(err)
	}
	if !d.IsCorrupted(a) {
		t.Error("IsCorrupted false after CorruptPage")
	}
	if _, _, _, err := read(d, a, 0); !errors.Is(err, ErrUncorrectable) {
		t.Errorf("read err = %v", err)
	}
	// Erase clears corruption.
	if _, err := d.Erase(a.BlockAddr, 0); err != nil {
		t.Fatal(err)
	}
	if d.IsCorrupted(a) {
		t.Error("corruption survived erase")
	}
}

func TestOutOfRangeAddresses(t *testing.T) {
	d := testDevice(t, core.RPS)
	cases := []PageAddr{
		addr(-1, 0, 0, core.LSB),
		addr(99, 0, 0, core.LSB),
		addr(0, -1, 0, core.LSB),
		addr(0, 999, 0, core.LSB),
		addr(0, 0, -1, core.LSB),
		addr(0, 0, 999, core.LSB),
		addr(0, 0, 0, 2), // a TLC page on the MLC device
		addr(0, 0, 0, 255),
	}
	for _, a := range cases {
		if _, err := d.Program(a, nil, nil, 0); err == nil {
			t.Errorf("program %v accepted", a)
		}
		if _, _, _, err := read(d, a, 0); err == nil {
			t.Errorf("read %v accepted", a)
		}
	}
	if _, err := d.Erase(BlockAddr{Chip: 0, Block: -1}, 0); err == nil {
		t.Error("erase of bad block address accepted")
	}
	if d.EraseCount(BlockAddr{Chip: -5, Block: 0}) != 0 {
		t.Error("EraseCount of bad address nonzero")
	}
	if d.BlockStateSnapshot(BlockAddr{Chip: -5, Block: 0}) != nil {
		t.Error("BlockStateSnapshot of bad address non-nil")
	}
}

func TestBlockProgrammedPages(t *testing.T) {
	d := testDevice(t, core.RPS)
	ba := BlockAddr{Chip: 0, Block: 0}
	if d.BlockProgrammedPages(ba) != 0 {
		t.Error("fresh block reports programmed pages")
	}
	mustProgram(t, d, addr(0, 0, 0, core.LSB), 0)
	mustProgram(t, d, addr(0, 0, 1, core.LSB), 0)
	if d.BlockProgrammedPages(ba) != 2 {
		t.Errorf("programmed pages = %d, want 2", d.BlockProgrammedPages(ba))
	}
	snap := d.BlockStateSnapshot(ba)
	if snap == nil || !snap.Written(core.Page{WL: 0, Type: core.LSB}) {
		t.Error("snapshot missing programmed page")
	}
}

func TestChipBusyTimeAccumulates(t *testing.T) {
	d := testDevice(t, core.RPS)
	mustProgram(t, d, addr(0, 0, 0, core.LSB), 0)
	if d.ChipBusyTime(0) <= 0 {
		t.Error("busy time not accumulated")
	}
	if d.ChipBusyTime(1) != 0 {
		t.Error("idle chip accumulated busy time")
	}
	if d.ChipReadyAt(0) <= 0 {
		t.Error("chip ready time not advanced")
	}
}

// Property: a full RPSfull block fill is accepted by an RPS device and every
// page reads back the written payload.
func TestFullBlockFillProperty(t *testing.T) {
	everyLevels(t, func(t *testing.T, d *Device) {
		g := d.Geometry()
		src := rng.New(77)
		payloads := make(map[core.Page]byte)
		now := sim.Time(0)
		for _, p := range core.RelaxedFullOrder(g.Scheme()) {
			b := byte(src.Intn(256))
			payloads[p] = b
			var err error
			now, err = d.Program(PageAddr{BlockAddr: BlockAddr{0, 3}, Page: p}, []byte{b}, nil, now)
			if err != nil {
				t.Fatalf("program %v: %v", p, err)
			}
		}
		if d.BlockProgrammedPages(BlockAddr{0, 3}) != g.PagesPerBlock() {
			t.Fatal("block not full")
		}
		for p, want := range payloads {
			got, _, _, err := read(d, PageAddr{BlockAddr: BlockAddr{0, 3}, Page: p}, now)
			if err != nil {
				t.Fatalf("read %v: %v", p, err)
			}
			if got[0] != want {
				t.Fatalf("page %v payload = %d, want %d", p, got[0], want)
			}
		}
	})
}

func TestReadIntoMatchesRead(t *testing.T) {
	d := testDevice(t, core.RPS)
	a := addr(0, 0, 0, core.LSB)
	data, spare := []byte("zero copy"), []byte{0x42, 0x24}
	progDone, err := d.Program(a, data, spare, 0)
	if err != nil {
		t.Fatal(err)
	}
	var buf PageBuf
	done1, err := d.ReadInto(a, &buf, progDone)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Data, data) || !bytes.Equal(buf.Spare, spare) {
		t.Errorf("ReadInto = %q/%x, programmed %q/%x", buf.Data, buf.Spare, data, spare)
	}
	if lat := done1 - progDone; lat != d.Timing().Read+d.Timing().BusXfer {
		t.Errorf("ReadInto latency %v, want sense + transfer", lat)
	}
	// A reused buffer holds the same payload again, not an appended one.
	doneInto, err := d.ReadInto(a, &buf, done1)
	if err != nil || !bytes.Equal(buf.Data, data) || !bytes.Equal(buf.Spare, spare) {
		t.Errorf("second ReadInto = %q/%x (%v)", buf.Data, buf.Spare, err)
	}

	// An erased page fails, and the buffer is truncated.
	if _, err := d.ReadInto(addr(0, 0, 1, core.LSB), &buf, doneInto); !errors.Is(err, ErrNotProgrammed) {
		t.Errorf("erased ReadInto err = %v, want ErrNotProgrammed", err)
	}
	if len(buf.Data) != 0 || len(buf.Spare) != 0 {
		t.Error("buffer not truncated after failed ReadInto")
	}
}

// TestCauseAttribution: every unit of media busy time lands in the bucket of
// the ambient cause, SetCause save/restore nests, and the per-cause busy
// counters mirror the array when a recorder is attached.
func TestCauseAttribution(t *testing.T) {
	everyLevels(t, testCauseAttribution)
}

func testCauseAttribution(t *testing.T, d *Device) {
	rec := obs.NewRecorder(obs.Options{})
	d.SetRecorder(rec)
	tm := d.Timing()

	// Host (default cause) LSB program.
	done, err := d.Program(addr(0, 0, 0, core.LSB), []byte("a"), nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	// GC-tagged read, with a nested backup-tagged program inside.
	prev := d.SetCause(obs.CauseGC)
	if prev != obs.CauseHost {
		t.Errorf("SetCause returned %v, want CauseHost", prev)
	}
	_, _, readDone, err := read(d, addr(0, 0, 0, core.LSB), done)
	if err != nil {
		t.Fatal(err)
	}
	inner := d.SetCause(obs.CauseBackup)
	if inner != obs.CauseGC {
		t.Errorf("nested SetCause returned %v, want CauseGC", inner)
	}
	bkDone, err := d.Program(addr(0, 0, 1, core.LSB), []byte("b"), nil, readDone)
	if err != nil {
		t.Fatal(err)
	}
	d.SetCause(inner)
	if d.Cause() != obs.CauseGC {
		t.Errorf("cause after restore = %v, want CauseGC", d.Cause())
	}
	d.SetCause(prev)

	busy := d.CauseBusy()
	if want := tm.BusXfer + tm.ProgLSB; busy[obs.CauseHost] != want {
		t.Errorf("host busy = %v, want %v", busy[obs.CauseHost], want)
	}
	if want := readDone - done; busy[obs.CauseGC] != want {
		t.Errorf("gc busy = %v, want %v (read latency)", busy[obs.CauseGC], want)
	}
	if want := bkDone - readDone; busy[obs.CauseBackup] != want {
		t.Errorf("backup busy = %v, want %v", busy[obs.CauseBackup], want)
	}
	if busy[obs.CausePad] != 0 {
		t.Errorf("pad busy = %v, want 0 (never tagged)", busy[obs.CausePad])
	}

	// The chip's total busy time decomposes exactly into the cause buckets.
	var sum sim.Time
	for _, b := range busy {
		sum += b
	}
	if total := d.ChipBusyTime(0); sum != total {
		t.Errorf("cause buckets sum to %v, chip busy %v", sum, total)
	}

	// Registry counters mirror the array.
	snap := rec.Registry().Snapshot()
	for c := obs.CauseHost; c < obs.CauseCount; c++ {
		if got := snap.Counters[obs.BusyCounterName("nand", c)]; got != int64(busy[c]) {
			t.Errorf("counter %s = %d, array %d", obs.BusyCounterName("nand", c), got, busy[c])
		}
	}
	if got := d.Counts().ProgramsLSB; got != 2 {
		t.Errorf("Counts().ProgramsLSB = %d, want 2", got)
	}
}

// TestCauseBusyWithoutRecorder: attribution accumulates deterministically
// even with tracing off (the array is unconditional; only counters gate).
func TestCauseBusyWithoutRecorder(t *testing.T) {
	d := testDevice(t, core.RPS)
	d.SetCause(obs.CauseGC)
	if _, err := d.Program(addr(0, 0, 0, core.LSB), []byte("a"), nil, 0); err != nil {
		t.Fatal(err)
	}
	busy := d.CauseBusy()
	if busy[obs.CauseGC] == 0 {
		t.Error("gc busy not charged without recorder")
	}
	if busy[obs.CauseHost] != 0 {
		t.Errorf("host busy = %v, want 0", busy[obs.CauseHost])
	}
}

// TestReadIntoZeroAllocsWithRecorder guards the enabled steady state: reads
// with the ring recorder and the cause counters live
// must stay allocation-free.
func TestReadIntoZeroAllocsWithRecorder(t *testing.T) {
	d := testDevice(t, core.RPS)
	d.SetRecorder(obs.NewRecorder(obs.Options{}))
	a := addr(0, 0, 0, core.LSB)
	if _, err := d.Program(a, []byte("zero copy"), []byte{0x42}, 0); err != nil {
		t.Fatal(err)
	}
	var buf PageBuf
	now := sim.Time(0)
	if _, err := d.ReadInto(a, &buf, now); err != nil {
		t.Fatal(err)
	}
	allocs := alloctest.Count(100, func() {
		done, err := d.ReadInto(a, &buf, now)
		if err != nil {
			t.Fatal(err)
		}
		now = done
	})
	if allocs != 0 {
		t.Errorf("100 instrumented ReadIntos allocate %d times, want 0", allocs)
	}
}

func TestReadIntoZeroAllocs(t *testing.T) {
	everyLevels(t, func(t *testing.T, d *Device) {
		a := addr(0, 0, 0, finest(d))
		fillThrough(t, d, a.BlockAddr, a.Page)
		var buf PageBuf
		now := sim.Time(0)
		if _, err := d.ReadInto(a, &buf, now); err != nil { // warm the buffer
			t.Fatal(err)
		}
		allocs := alloctest.Count(100, func() {
			done, err := d.ReadInto(a, &buf, now)
			if err != nil {
				t.Fatal(err)
			}
			now = done
		})
		if allocs != 0 {
			t.Errorf("100 ReadIntos allocate %d times, want 0", allocs)
		}
	})
}
