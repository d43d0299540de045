package nandn

// The device's own tests are internal/nand's, which run every behaviour at
// Levels 2, 3 and 4. What is here pins, under the names this package's tests
// always had, that the shim's presets, three-field addresses and counter
// spelling reach that device unchanged — the TLC micro rows and the
// tlc_varmail digest of bench/ depend on it. Delete with the package.

import (
	"bytes"
	"errors"
	"runtime/debug"
	"testing"

	"flexftl/internal/alloctest"
	"flexftl/internal/core"
	"flexftl/internal/nand"
	"flexftl/internal/obs"
	"flexftl/internal/pagemem"
	"flexftl/internal/sim"
)

func testDevice(t *testing.T) Device {
	t.Helper()
	g := TLCGeometry()
	g.BlocksPerChip = 8
	g.WordLinesPerBlock = 4
	d, err := NewDevice(g, TLCTiming())
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func pa(chip, blk, wl, lvl int) PageAddr {
	return PageAddr{Chip: chip, Block: blk, Page: core.Page{WL: wl, Type: core.PageType(lvl)}}
}

// fill programs block 0 of chip 0 in 3-phase order through page last.
func fill(t *testing.T, d Device, last core.Page) sim.Time {
	t.Helper()
	now := sim.Time(0)
	for _, p := range core.RelaxedFullOrder(d.Geometry().Scheme()) {
		var err error
		if now, err = d.Program(PageAddr{Page: p}, []byte{1}, nil, now); err != nil {
			t.Fatalf("program %v: %v", p, err)
		}
		if p == last {
			break
		}
	}
	return now
}

func TestGeometryValidate(t *testing.T) {
	g := TLCGeometry()
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	if g != nand.TLCGeometry() || g.Levels != 3 || g.Chips() != 4 || g.PagesPerBlock() != 96 || g.TotalBlocks() != 256 {
		t.Errorf("TLC preset changed: %+v", g)
	}
	if g.Scheme() != core.TLC(32) {
		t.Errorf("Scheme() = %+v", g.Scheme())
	}
}

func TestTimingValidate(t *testing.T) {
	tm := TLCTiming()
	if err := tm.Validate(3); err != nil {
		t.Fatal(err)
	}
	us := sim.Microsecond
	if tm.ProgLSB != 400*us || tm.ProgMSB != 1100*us || tm.Prog(2) != 3000*us || tm.Read != 60*us || tm.Erase != 6*sim.Millisecond || tm.BusXfer != 10*us {
		t.Errorf("TLC latencies changed: %+v", tm)
	}
}

func TestNewDeviceRejectsBadConfig(t *testing.T) {
	bad := TLCGeometry()
	bad.Levels = 1
	if _, err := NewDevice(bad, TLCTiming()); err == nil {
		t.Error("bad geometry accepted")
	}
	if _, err := NewDevice(TLCGeometry(), nand.DefaultTiming()); err == nil {
		t.Error("two program latencies accepted for three levels")
	}
}

func TestProgramEnforcesRelaxedRules(t *testing.T) {
	d := testDevice(t)
	if d.Rules() != core.RPS {
		t.Fatalf("shim device enforces %s, want RPS", d.Rules().Name())
	}
	var cv *core.ConstraintViolation
	if _, err := d.Program(pa(0, 0, 0, 1), nil, nil, 0); !errors.As(err, &cv) || cv.Constraint != 3 {
		t.Fatalf("refinement without its LSB: %v", err)
	}
	fill(t, d, core.Page{WL: 3, Type: 2})
	if got := d.BlockProgrammedPages(nand.BlockAddr{}); got != d.Geometry().PagesPerBlock() {
		t.Errorf("%d pages programmed after the 3-phase fill", got)
	}
}

func TestPerLevelLatencies(t *testing.T) {
	d := testDevice(t)
	tm := d.Timing()
	done0, _ := d.Program(pa(0, 0, 0, 0), nil, nil, 0)
	done1, _ := d.Program(pa(0, 0, 1, 0), nil, nil, done0)
	doneRef, err := d.Program(pa(0, 0, 0, 1), nil, nil, done1)
	if err != nil {
		t.Fatal(err)
	}
	if done0 != tm.BusXfer+tm.ProgLSB || doneRef-done1 != tm.BusXfer+tm.ProgMSB {
		t.Errorf("latencies %v / %v", done0, doneRef-done1)
	}
	if counts := d.Programs(); len(counts) != 3 || counts[0] != 2 || counts[1] != 1 || counts[2] != 0 {
		t.Errorf("program counts = %v", counts)
	}
}

func TestReadBackAndErase(t *testing.T) {
	d := testDevice(t)
	data, spare := []byte("tlc payload"), []byte{0xaa}
	if _, err := d.Program(pa(3, 5, 0, 0), data, spare, 0); err != nil {
		t.Fatal(err)
	}
	// The three-field address names the same page as nand's.
	var got PageBuf
	done, err := d.Device.ReadInto(pa(3, 5, 0, 0).addr(), &got, 0)
	if err != nil || !bytes.Equal(got.Data, data) || !bytes.Equal(got.Spare, spare) {
		t.Fatalf("read back %q/%x: %v", got.Data, got.Spare, err)
	}
	if _, err := d.Erase(3, 5, done); err != nil {
		t.Fatal(err)
	}
	if d.EraseCount(nand.BlockAddr{Chip: 3, Block: 5}) != 1 || d.Erases() != 1 || d.Reads() != 1 {
		t.Error("erase/read accounting wrong")
	}
	var buf PageBuf
	if _, err := d.ReadInto(pa(3, 5, 0, 0), &buf, done); !errors.Is(err, nand.ErrNotProgrammed) {
		t.Errorf("page survived erase: %v", err)
	}
}

func TestPowerLossDestroysEarlierBits(t *testing.T) {
	d := testDevice(t)
	now := fill(t, d, core.Page{WL: 0, Type: 2})
	if !d.InjectPowerLoss(nand.BlockAddr{}) {
		t.Fatal("no window after an unacknowledged level-2 program")
	}
	var buf PageBuf
	for lvl := 0; lvl < 3; lvl++ {
		if _, err := d.ReadInto(pa(0, 0, 0, lvl), &buf, now); !errors.Is(err, nand.ErrUncorrectable) {
			t.Errorf("level %d of word line 0: %v, want uncorrectable", lvl, err)
		}
	}
	if _, err := d.ReadInto(pa(0, 0, 1, 0), &buf, now); err != nil {
		t.Errorf("unrelated page damaged: %v", err)
	}
}

func TestAckClosesWindow(t *testing.T) {
	d := testDevice(t)
	fill(t, d, core.Page{WL: 0, Type: 1})
	d.AckProgram(nand.BlockAddr{})
	if d.InjectPowerLoss(nand.BlockAddr{}) {
		t.Error("acknowledged refinement still vulnerable")
	}
}

func TestLevel0NotDestructive(t *testing.T) {
	d := testDevice(t)
	fill(t, d, core.Page{WL: 0, Type: 0})
	if d.InjectPowerLoss(nand.BlockAddr{}) {
		t.Error("level-0 program flagged destructive")
	}
}

func TestPowerLossFlagsSurvivePacking(t *testing.T) {
	d := testDevice(t)
	fill(t, d, core.Page{WL: 0, Type: 1})
	if !d.InjectPowerLoss(nand.BlockAddr{}) {
		t.Fatal("no window")
	}
	if !d.IsCorrupted(pa(0, 0, 0, 0).addr()) || !d.IsCorrupted(pa(0, 0, 0, 1).addr()) || d.IsCorrupted(pa(0, 0, 1, 0).addr()) {
		t.Error("cut did not mark exactly LSB(0) and MSB(0)")
	}
}

func TestChannelContention(t *testing.T) {
	d := testDevice(t)
	tm := d.Timing()
	d1, _ := d.Program(pa(0, 0, 0, 0), nil, nil, 0)
	d2, _ := d.Program(pa(1, 0, 0, 0), nil, nil, 0) // shares channel 0
	d3, _ := d.Program(pa(2, 0, 0, 0), nil, nil, 0) // channel 1
	if d1 != tm.BusXfer+tm.ProgLSB || d2 != 2*tm.BusXfer+tm.ProgLSB || d3 != d1 {
		t.Errorf("bus serialization wrong: %v, %v, %v", d1, d2, d3)
	}
}

func TestOutOfRange(t *testing.T) {
	d := testDevice(t)
	var buf PageBuf
	for _, a := range []PageAddr{pa(-1, 0, 0, 0), pa(0, 99, 0, 0), pa(0, 0, 99, 0), pa(0, 0, 0, 3)} {
		if _, err := d.Program(a, nil, nil, 0); err == nil {
			t.Errorf("program %v accepted", a)
		}
		if _, err := d.ReadInto(a, &buf, 0); err == nil {
			t.Errorf("read %v accepted", a)
		}
	}
	if _, err := d.Erase(0, -1, 0); err == nil {
		t.Error("erase of bad block accepted")
	}
}

func TestReadIntoMatchesRead(t *testing.T) {
	d := testDevice(t)
	a := pa(0, 0, 0, 0)
	data, spare := []byte("tlc zero copy"), []byte{0x7}
	done, err := d.Program(a, data, spare, 0)
	if err != nil {
		t.Fatal(err)
	}
	var buf PageBuf
	doneInto, err := d.ReadInto(a, &buf, done)
	if err != nil || !bytes.Equal(buf.Data, data) || !bytes.Equal(buf.Spare, spare) {
		t.Errorf("ReadInto = %q/%x (%v), programmed %q/%x", buf.Data, buf.Spare, err, data, spare)
	}
	if doneInto-done != d.Timing().Read+d.Timing().BusXfer {
		t.Errorf("ReadInto latency %v", doneInto-done)
	}
}

func TestReadIntoZeroAllocs(t *testing.T) {
	d := testDevice(t)
	a := pa(0, 0, 0, 0)
	if _, err := d.Program(a, []byte("tlc zero copy"), []byte{0x7}, 0); err != nil {
		t.Fatal(err)
	}
	var buf PageBuf
	now, _ := d.ReadInto(a, &buf, 0)
	if allocs := alloctest.Count(100, func() { now, _ = d.ReadInto(a, &buf, now) }); allocs != 0 {
		t.Errorf("100 ReadIntos through the shim allocate %d times, want 0", allocs)
	}
}

func TestCauseAttribution(t *testing.T) {
	d := testDevice(t)
	rec := obs.NewRecorder(obs.Options{})
	d.SetRecorder(rec)
	done, _ := d.Program(pa(0, 0, 0, 0), []byte("a"), nil, 0)
	prev := d.SetCause(obs.CauseGC)
	gcDone, _ := d.Program(pa(0, 0, 1, 0), []byte("b"), nil, done)
	d.SetCause(prev)
	busy := d.CauseBusy()
	if busy[obs.CauseHost] != done || busy[obs.CauseGC] != gcDone-done {
		t.Errorf("busy = host %v gc %v", busy[obs.CauseHost], busy[obs.CauseGC])
	}
	// The registry names are the one device's.
	snap := rec.Registry().Snapshot()
	if got := snap.Counters[obs.BusyCounterName("nand", obs.CauseGC)]; got != int64(busy[obs.CauseGC]) {
		t.Errorf("nand gc busy counter = %d, array %d", got, busy[obs.CauseGC])
	}
	if got := d.Counts().ProgramsLSB; got != 2 {
		t.Errorf("Counts().ProgramsLSB = %d, want 2", got)
	}
}

func TestWearStats(t *testing.T) {
	d := testDevice(t)
	for _, blk := range []int{0, 0, 0, 1} {
		if _, err := d.Erase(0, blk, 0); err != nil {
			t.Fatal(err)
		}
	}
	if w := d.Wear(); w.Min != 0 || w.Max != 3 || w.Imbalance <= 1 {
		t.Errorf("wear = %+v", w)
	}
}

// TestInlineOversizeBoundary: a parity page's 9-byte token with no spare, a
// data page's token with its first 4 bytes as spare and a parity page's
// token with a block number as spare stay in the page record (the last
// with its spare in the chip's wide list), and a longer payload — a token
// and a spare's worth of data, the slot plus one byte, a full page — goes to
// the side table; each reads back exactly.
func TestInlineOversizeBoundary(t *testing.T) {
	d := testDevice(t)
	var buf PageBuf
	for blk, c := range []struct{ data, spare int }{
		{pagemem.TokenBytes, 0}, {pagemem.TokenBytes, -pagemem.SpareBytes}, {pagemem.TokenBytes, pagemem.SpareBytes},
		{pagemem.TokenBytes + pagemem.SpareBytes, 0}, {pagemem.InlineBytes + 1, 0}, {d.Geometry().PageSizeBytes, 0},
	} {
		data := bytes.Repeat([]byte{byte(blk + 1)}, c.data)
		spare := bytes.Repeat([]byte{0xa0}, max(c.spare, 0))
		if c.spare < 0 { // the data's first bytes
			spare = data[:-c.spare]
		}
		if _, err := d.Program(pa(1, blk, 0, 0), data, spare, 0); err != nil {
			t.Fatal(err)
		}
		if _, err := d.ReadInto(pa(1, blk, 0, 0), &buf, 0); err != nil || !bytes.Equal(buf.Data, data) || !bytes.Equal(buf.Spare, spare) {
			t.Errorf("%d+%dB payload read back %x/%x (%v), want %x/%x", len(data), len(spare), buf.Data, buf.Spare, err, data, spare)
		}
	}
	if n, _ := d.WideSpares(1); n != 1 {
		t.Errorf("chip 1 keeps %d wide spares, want the parity page's 1", n)
	}
}

// TestReprogramAcrossSlotSizes: one page programmed, read and erased in
// turn with payloads in the side table (40, 5, 60, 16 bytes, and 13 with a
// spare) and in the page record (a 9-byte token with no spare, with its
// first 4 bytes as spare and with a foreign spare in the wide list, and 0
// bytes) reads back each payload exactly, and every erase leaves the wide
// list empty.
func TestReprogramAcrossSlotSizes(t *testing.T) {
	d := testDevice(t)
	var buf PageBuf
	for i, c := range []struct {
		data   int
		spare  []byte
		prefix bool // the spare is the data's first 4 bytes
	}{
		{40, nil, false}, {pagemem.TokenBytes, []byte{1, 2, 3, 4}, false}, {5, nil, false}, {pagemem.TokenBytes, nil, false},
		{60, nil, false}, {pagemem.TokenBytes, nil, true}, {16, nil, false},
		{pagemem.TokenBytes + pagemem.SpareBytes, []byte{9, 9, 9, 9}, false}, {0, nil, false},
	} {
		data, spare := bytes.Repeat([]byte{byte(i + 1)}, c.data), c.spare
		if c.prefix {
			spare = data[:pagemem.SpareBytes]
		}
		if _, err := d.Program(pa(0, 3, 0, 0), data, spare, 0); err != nil {
			t.Fatal(err)
		}
		if _, err := d.ReadInto(pa(0, 3, 0, 0), &buf, 0); err != nil || !bytes.Equal(buf.Data, data) || !bytes.Equal(buf.Spare, spare) {
			t.Errorf("step %d: read back %x/%x (%v), want %x/%x", i, buf.Data, buf.Spare, err, data, spare)
		}
		if _, err := d.Erase(0, 3, 0); err != nil {
			t.Fatal(err)
		}
		if n, _ := d.WideSpares(0); n != 0 {
			t.Errorf("step %d: the erase left %d wide spares", i, n)
		}
	}
}

func TestEraseOfEmptyBlockSkipsSweep(t *testing.T) {
	d := testDevice(t)
	done, err := d.Erase(0, 1, 0)
	if err != nil || done != d.Timing().Erase {
		t.Fatalf("erase of an empty block: done %v, %v", done, err)
	}
	if d.EraseCount(nand.BlockAddr{Chip: 0, Block: 1}) != 1 || d.Erases() != 1 {
		t.Error("empty-block erase not counted")
	}
}

// TestPageTableAllocations: building the TLC micro device costs the same
// however many blocks and word lines it has, plus nothing for the shim.
func TestPageTableAllocations(t *testing.T) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1)) // a collection per large build would count
	build := func(blocks, wordLines int) int {
		g := TLCGeometry()
		g.BlocksPerChip, g.WordLinesPerBlock = blocks, wordLines
		return alloctest.Count(5, func() {
			if _, err := NewDevice(g, TLCTiming()); err != nil {
				t.Fatal(err)
			}
		})
	}
	if small, large := build(8, 4), build(64, 64); small != large {
		t.Errorf("5 NewDevices: %d allocations at 8 blocks x 4 word lines, %d at 64 x 64", small, large)
	}
}
