package nand

import (
	"bytes"
	"errors"
	"runtime/debug"
	"testing"

	"flexftl/internal/alloctest"
	"flexftl/internal/core"
	"flexftl/internal/pagemem"
	"flexftl/internal/rel"
	"flexftl/internal/sim"
)

// pattern returns n bytes that differ by position and by seed.
func pattern(n int, seed byte) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = seed + byte(i)*7
	}
	return b
}

// readBoth reads the page through Read and ReadInto and checks they agree.
func readBoth(t *testing.T, d *Device, a PageAddr) (data, spare []byte) {
	t.Helper()
	data, spare, _, err := read(d, a, 0)
	if err != nil {
		t.Fatalf("Read %v: %v", a, err)
	}
	var buf PageBuf
	if _, err := d.ReadInto(a, &buf, 0); err != nil {
		t.Fatalf("ReadInto %v: %v", a, err)
	}
	if !bytes.Equal(buf.Data, data) || !bytes.Equal(buf.Spare, spare) {
		t.Fatalf("ReadInto %v = %x/%x, Read = %x/%x", a, buf.Data, buf.Spare, data, spare)
	}
	return data, spare
}

// TestInlineOversizeBoundary: the four shapes the FTLs program — a data page
// (9+4, the spare its token's first 4 bytes), a parity page naming its block
// (9+4, a foreign spare, which goes to the chip's wide list), an FPS parity
// page (9+0) and a pad (0+0) — stay in the page record; any other shape,
// however short, goes to the chip's oversize table. All read back exactly,
// whatever the split, and PeekSpare sees the first spare bytes of each.
func TestInlineOversizeBoundary(t *testing.T) {
	g := TestGeometry()
	const record, wide, oversize = 0, 1, 2
	cases := []struct {
		data, spare int
		prefix      bool // the spare is the data's first bytes
		where       int
	}{
		{9, 4, true, record}, {9, 4, false, wide}, {9, 0, false, record}, {0, 0, false, record}, // the FTLs' shapes
		{13, 0, false, oversize}, {4, 9, false, oversize}, {0, 4, false, oversize}, {8, 4, false, oversize}, {4, 4, true, oversize}, // other splits
		{10, 0, false, oversize}, {10, 4, true, oversize}, {9, 5, false, oversize}, {0, 9, false, oversize}, // the slot + 1
		{g.PageSizeBytes, g.SpareBytes, false, oversize}, // a full page
	}
	everyLevels(t, func(t *testing.T, d *Device) {
		side := &d.chips[1].side
		for blk, c := range cases {
			a := addr(1, blk, 0, core.LSB)
			data, spare := pattern(c.data, 1), pattern(c.spare, 101)
			if c.prefix {
				spare = append([]byte(nil), data[:c.spare]...)
			}
			wideBefore, _ := side.WideSpares()
			overBefore := side.OversizeEntries()
			if _, err := d.Program(a, data, spare, 0); err != nil {
				t.Fatal(err)
			}
			gotData, gotSpare := readBoth(t, d, a)
			if !bytes.Equal(gotData, data) || !bytes.Equal(gotSpare, spare) {
				t.Errorf("%d+%dB: read back %x/%x, want %x/%x", c.data, c.spare, gotData, gotSpare, data, spare)
			}
			wideAfter, _ := side.WideSpares()
			if got := wideAfter - wideBefore; got != b2i(c.where == wide) {
				t.Errorf("%d+%dB (prefix spare %v): %d new wide-list entries, want %d", c.data, c.spare, c.prefix, got, b2i(c.where == wide))
			}
			if got := side.OversizeEntries() - overBefore; got != b2i(c.where == oversize) {
				t.Errorf("%d+%dB (prefix spare %v): %d new oversize entries, want %d", c.data, c.spare, c.prefix, got, b2i(c.where == oversize))
			}
			peek, ok := d.PeekSpare(d.Layout().PPNOf(a))
			if want := c.spare >= pagemem.SpareBytes; ok != want || ok && !bytes.Equal(peek[:], spare[:pagemem.SpareBytes]) {
				t.Errorf("%d+%dB: PeekSpare = %x,%v, want the first %d spare bytes: %v", c.data, c.spare, peek, ok, pagemem.SpareBytes, want)
			}
		}
		if n, _ := d.chips[0].side.WideSpares(); n != 0 || d.chips[0].side.OversizeEntries() != 0 {
			t.Error("chip 0 holds side entries from programs on chip 1")
		}
	})
}

// b2i is 1 for true and 0 for false.
func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

// TestReprogramAcrossSlotSizes: a page that held an oversize payload holds an
// inline one after an erase, and the other way round, and a page whose spare
// was in the wide list holds a data page's; nothing of the earlier payload
// or spare shows through, including a longer one of the same kind.
func TestReprogramAcrossSlotSizes(t *testing.T) {
	everyLevels(t, func(t *testing.T, d *Device) {
		a := addr(0, 3, 0, core.LSB)
		for i, c := range []struct {
			data, spare int
			prefix      bool
		}{
			{40, 0, false}, {9, 4, true}, {33, 2, false}, {9, 4, false}, {9, 0, false}, {9, 4, true},
			{60, 1, false}, {0, 0, false}, {9, 4, false}, {5, 1, false}, {9, 4, false}, {9, 4, true},
		} {
			data, spare := pattern(c.data, byte(i)), pattern(c.spare, byte(50+i))
			if c.prefix {
				spare = append([]byte(nil), data[:c.spare]...)
			}
			if _, err := d.Program(a, data, spare, 0); err != nil {
				t.Fatalf("program %d+%dB: %v", c.data, c.spare, err)
			}
			gotData, gotSpare := readBoth(t, d, a)
			if !bytes.Equal(gotData, data) || !bytes.Equal(gotSpare, spare) {
				t.Errorf("step %d (%d+%dB): read back %x/%x, want %x/%x", i, c.data, c.spare, gotData, gotSpare, data, spare)
			}
			if _, err := d.Erase(a.BlockAddr, 0); err != nil {
				t.Fatal(err)
			}
			if _, _, _, err := read(d, a, 0); !errors.Is(err, ErrNotProgrammed) {
				t.Errorf("step %d: read after erase: %v, want ErrNotProgrammed", i, err)
			}
			if _, ok := d.PeekSpare(d.Layout().PPNOf(a)); ok {
				t.Errorf("step %d: PeekSpare after erase reports a spare", i)
			}
			if n, _ := d.WideSpares(0); n != 0 {
				t.Errorf("step %d: the erase left %d wide spares", i, n)
			}
		}
	})
}

// TestWideSpareDroppedOnErase: a block filled with pages whose spare is not
// their token's prefix reads every spare back through ReadInto and
// PeekSpare, PeekSpare also after CorruptPage; its erase empties the chip's
// wide list, and a reprogram with new spares reads the new values.
func TestWideSpareDroppedOnErase(t *testing.T) {
	everyLevels(t, func(t *testing.T, d *Device) {
		blk := BlockAddr{Chip: 2, Block: 4}
		order := core.RelaxedFullOrder(d.Geometry().Scheme())
		token := pattern(pagemem.TokenBytes, 3)
		spareOf := func(round, i int) []byte { return []byte{byte(i), byte(round), 0xee, byte(i >> 8)} }
		for round := 0; round < 2; round++ {
			for i, p := range order {
				if _, err := d.Program(PageAddr{BlockAddr: blk, Page: p}, token, spareOf(round, i), 0); err != nil {
					t.Fatal(err)
				}
			}
			if n, _ := d.WideSpares(2); n != len(order) {
				t.Fatalf("round %d: %d wide spares for a block of %d pages", round, n, len(order))
			}
			var buf PageBuf
			for i, p := range order {
				a := PageAddr{BlockAddr: blk, Page: p}
				if _, err := d.ReadInto(a, &buf, 0); err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(buf.Data, token) || !bytes.Equal(buf.Spare, spareOf(round, i)) {
					t.Errorf("round %d, page %v: ReadInto = %x/%x, want %x/%x", round, p, buf.Data, buf.Spare, token, spareOf(round, i))
				}
				if err := d.CorruptPage(a); err != nil {
					t.Fatal(err)
				}
				if got, ok := d.PeekSpare(d.Layout().PPNOf(a)); !ok || !bytes.Equal(got[:], spareOf(round, i)) {
					t.Errorf("round %d, corrupted page %v: PeekSpare = %x,%v, want %x", round, p, got, ok, spareOf(round, i))
				}
			}
			if _, err := d.Erase(blk, 0); err != nil {
				t.Fatal(err)
			}
			if n, _ := d.WideSpares(2); n != 0 {
				t.Errorf("round %d: the erase left %d wide spares", round, n)
			}
		}
	})
}

// TestReadsDoNotAliasDeviceMemory: Read hands out copies and ReadInto fills
// the caller's buffer, for inline and oversize payloads alike, and a ReadInto
// after a re-program sees the new bytes.
func TestReadsDoNotAliasDeviceMemory(t *testing.T) {
	for _, n := range []int{9, 48} { // with the spare: inline (a wide spare), oversize
		d := testDevice(t, core.RPS)
		a := addr(0, 0, 0, core.LSB)
		data, spare := pattern(n, 3), pattern(4, 9)
		if _, err := d.Program(a, data, spare, 0); err != nil {
			t.Fatal(err)
		}
		got, gotSpare, _, err := read(d, a, 0)
		if err != nil {
			t.Fatal(err)
		}
		var buf PageBuf
		if _, err := d.ReadInto(a, &buf, 0); err != nil {
			t.Fatal(err)
		}
		for _, b := range [][]byte{got, gotSpare, buf.Data, buf.Spare} {
			for i := range b {
				b[i] ^= 0xff
			}
		}
		if again, againSpare := readBoth(t, d, a); !bytes.Equal(again, data) || !bytes.Equal(againSpare, spare) {
			t.Errorf("%dB: scribbling on read results changed the stored page", n)
		}
		// The caller's data is copied at program time, too.
		data[0] ^= 0xff
		if again, _ := readBoth(t, d, a); again[0] != data[0]^0xff {
			t.Errorf("%dB: Program kept a reference to the caller's slice", n)
		}

		if _, err := d.Erase(a.BlockAddr, 0); err != nil {
			t.Fatal(err)
		}
		fresh := pattern(n, 77)
		if _, err := d.Program(a, fresh, nil, 0); err != nil {
			t.Fatal(err)
		}
		if _, err := d.ReadInto(a, &buf, 0); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(buf.Data, fresh) || len(buf.Spare) != 0 {
			t.Errorf("%dB: ReadInto after re-program = %x/%x, want %x and no spare", n, buf.Data, buf.Spare, fresh)
		}
	}
}

// withReliability mounts the BER model on a test configuration.
func withReliability(cfg *Config) {
	rc := rel.DefaultConfig(1)
	cfg.Reliability = &rc
}

// TestFlagsSurvivePacking: corruption, the lost pin and a power cut each mark
// exactly their pages, keep the payload of an oversize neighbour reachable,
// and are cleared by erase + program.
func TestFlagsSurvivePacking(t *testing.T) {
	everyLevelsWith(t, withReliability, func(t *testing.T, d *Device) {
		blk := BlockAddr{Chip: 2, Block: 5}
		page := func(wl int, level core.PageType) PageAddr {
			return PageAddr{BlockAddr: blk, Page: core.Page{WL: wl, Type: level}}
		}
		lsb := func(wl int) PageAddr { return page(wl, core.LSB) }
		big := pattern(50, 4)
		order := core.RelaxedFullOrder(d.Geometry().Scheme())
		wordLines := d.Geometry().WordLinesPerBlock
		for _, p := range order[:wordLines] { // the LSB phase
			if _, err := d.Program(PageAddr{BlockAddr: blk, Page: p}, big, nil, 0); err != nil {
				t.Fatal(err)
			}
		}
		if err := d.CorruptPage(lsb(0)); err != nil {
			t.Fatal(err)
		}
		if err := d.MarkLost(lsb(1)); err != nil {
			t.Fatal(err)
		}
		if _, _, _, err := read(d, lsb(0), 0); !errors.Is(err, ErrUncorrectable) {
			t.Errorf("corrupted page: %v, want nand.ErrUncorrectable", err)
		}
		if _, _, _, err := read(d, lsb(1), 0); !errors.Is(err, rel.ErrUncorrectable) {
			t.Errorf("lost page: %v, want rel.ErrUncorrectable", err)
		}
		if !d.IsCorrupted(lsb(0)) || d.IsCorrupted(lsb(1)) || d.IsCorrupted(lsb(2)) {
			t.Error("IsCorrupted does not follow CorruptPage page by page")
		}
		for wl := 0; wl < 4; wl++ {
			if !d.IsProgrammed(lsb(wl)) {
				t.Errorf("LSB(%d) lost its programmed flag to a neighbour's fault", wl)
			}
		}
		if got, _ := readBoth(t, d, lsb(2)); !bytes.Equal(got, big) {
			t.Error("oversize payload beside flagged pages unreadable")
		}

		// A power cut in the open window marks the interrupted page of the
		// finest level and every coarser page of its word line.
		cut := core.Page{WL: 2, Type: finest(d)}
		for _, p := range order[wordLines:] {
			if _, err := d.Program(PageAddr{BlockAddr: blk, Page: p}, big, nil, 0); err != nil {
				t.Fatal(err)
			}
			if p == cut {
				break
			}
		}
		if !d.InjectPowerLoss(blk) {
			t.Fatal("power cut with an open window corrupted nothing")
		}
		for l := core.LSB; l <= cut.Type; l++ {
			if !d.IsCorrupted(page(2, l)) || d.IsCorrupted(page(3, l)) {
				t.Errorf("power cut did not mark exactly word line 2 at level %v", l)
			}
		}

		if _, err := d.Erase(blk, 0); err != nil {
			t.Fatal(err)
		}
		for wl := 0; wl < 3; wl++ {
			if _, err := d.Program(lsb(wl), []byte{byte(wl)}, nil, 0); err != nil {
				t.Fatal(err)
			}
			if got, _ := readBoth(t, d, lsb(wl)); len(got) != 1 || got[0] != byte(wl) {
				t.Errorf("LSB(%d) after erase + program = %x: an old flag or payload survived", wl, got)
			}
		}
	})
}

// TestEraseOfEmptyBlockSkipsSweep: erasing a block with nothing programmed
// since its last erase does not visit its pages, and still counts as an
// erase in every other respect.
func TestEraseOfEmptyBlockSkipsSweep(t *testing.T) {
	everyLevelsWith(t, withReliability, testEraseOfEmptyBlockSkipsSweep)
}

func testEraseOfEmptyBlockSkipsSweep(t *testing.T, d *Device) {
	empty, other := BlockAddr{Chip: 0, Block: 1}, BlockAddr{Chip: 0, Block: 2}
	// A flag the API cannot put on an erased page: if it is still there after
	// the erase, the erase did not sweep.
	canary := &d.chips[0].blockPages(empty.Block, d.Geometry().PagesPerBlock())[3]
	canary.Flags = pagemem.Lost

	// An open MSB window elsewhere on the chip: any erase on the chip closes it.
	for _, pg := range []core.Page{{WL: 0, Type: core.LSB}, {WL: 1, Type: core.LSB}, {WL: 0, Type: core.MSB}} {
		if _, err := d.Program(PageAddr{BlockAddr: other, Page: pg}, []byte("x"), nil, 0); err != nil {
			t.Fatal(err)
		}
	}
	if _, open := d.OpenMSBWindow(0); !open {
		t.Fatal("no open window to close")
	}
	before := d.ChipReadyAt(0)
	done, err := d.Erase(empty, 0)
	if err != nil {
		t.Fatal(err)
	}
	if canary.Flags != pagemem.Lost {
		t.Error("erase of an empty block swept its pages")
	}
	canary.Flags = 0
	if done != before+DefaultTiming().Erase {
		t.Errorf("erase done at %v, want chip ready %v + erase latency", done, before)
	}
	if d.EraseCount(empty) != 1 || d.Counts().Erases != 1 {
		t.Errorf("wear = %d, device erases = %d, want 1 and 1", d.EraseCount(empty), d.Counts().Erases)
	}
	if _, open := d.OpenMSBWindow(0); open {
		t.Error("erase of an empty block left the chip's MSB window open")
	}
	if d.BlockReadCount(empty) != 0 || d.PredictBlockBER(empty, sim.Second) != 0 {
		t.Error("empty block has a read count or a retention clock after erase")
	}

	// A block that was programmed is swept, and is empty again afterwards.
	a := PageAddr{BlockAddr: empty, Page: core.Page{WL: 0, Type: core.LSB}}
	if _, err := d.Program(a, []byte("y"), nil, done); err != nil {
		t.Fatal(err)
	}
	if _, _, _, err := read(d, a, 0); err != nil {
		t.Fatal(err)
	}
	if d.BlockReadCount(empty) != 1 || d.PredictBlockBER(empty, sim.Second) == 0 {
		t.Error("programmed block has no read count or retention clock")
	}
	for i := 0; i < 2; i++ {
		if _, err := d.Erase(empty, 0); err != nil {
			t.Fatal(err)
		}
		if d.IsProgrammed(a) || d.BlockProgrammedPages(empty) != 0 || d.BlockReadCount(empty) != 0 || d.PredictBlockBER(empty, sim.Second) != 0 {
			t.Errorf("erase %d left state behind", i+1)
		}
	}
	if d.EraseCount(empty) != 3 || d.TotalErases() != 3 {
		t.Errorf("wear = %d, total = %d, want 3 and 3", d.EraseCount(empty), d.TotalErases())
	}
}

// TestPageTableAllocations: pages, program state and blocks are one
// allocation each, so building a device costs the same number of allocations
// however many blocks a chip and pages a block has, and programming an
// FTL-sized payload never allocates — not on first touch, not after an erase.
func TestPageTableAllocations(t *testing.T) {
	restore := debug.SetGCPercent(-1) // a collection per large build would count
	for levels := 2; levels <= MaxLevels; levels++ {
		build := func(blocks, wordLines int) int {
			cfg := levelConfig(levels)
			cfg.Geometry.BlocksPerChip, cfg.Geometry.WordLinesPerBlock = blocks, wordLines
			return alloctest.Count(5, func() {
				if _, err := NewDevice(cfg); err != nil {
					t.Fatal(err)
				}
			})
		}
		small := build(8, 8)
		if moreBlocks, morePages := build(256, 8), build(8, 128); small != moreBlocks || small != morePages {
			t.Errorf("levels=%d: 5 NewDevices cost %d allocations at 8 blocks x 8 word lines, %d at 256 blocks, %d at 128 word lines",
				levels, small, moreBlocks, morePages)
		}
	}
	debug.SetGCPercent(restore)

	everyLevels(t, func(t *testing.T, d *Device) {
		order := core.RelaxedFullOrder(d.Geometry().Scheme())
		// The FTLs' pages: a 9-byte token (ftl.TokenSize) with a 4-byte
		// spare (ftl.SpareSize) that is the token's LPN on a data page and a
		// block number on every eighth, a parity page; the parity pages
		// stay within the chip's wide-list room.
		token, blockNo := pattern(pagemem.TokenBytes, 1), pattern(pagemem.SpareBytes, 2)
		dataSpare := append([]byte(nil), token[:pagemem.SpareBytes]...)
		buf := PageBuf{Data: make([]byte, 0, pagemem.TokenBytes), Spare: make([]byte, 0, pagemem.SpareBytes)}
		const batch = 50 // pages per call; AllocsPerRun makes a warm-up call and one counted call
		next := 0
		programBatch := func() {
			for range batch {
				a := PageAddr{BlockAddr: BlockAddr{Chip: 3, Block: next / len(order)}, Page: order[next%len(order)]}
				spare := dataSpare
				if next%8 == 7 {
					spare = blockNo
				}
				if _, err := d.Program(a, token, spare, 0); err != nil {
					t.Fatal(err)
				}
				if _, err := d.ReadInto(a, &buf, 0); err != nil || !bytes.Equal(buf.Spare, spare) {
					t.Fatalf("page %d reads back spare %x (%v), want %x", next, buf.Spare, err, spare)
				}
				next++
			}
		}
		if allocs := testing.AllocsPerRun(1, programBatch); allocs != 0 {
			t.Errorf("first-touch Program and ReadInto of %d pages allocate %.0f times, want 0", batch, allocs)
		}
		if n, room := d.WideSpares(3); n != next/8 || room != 3*d.Geometry().WordLinesPerBlock {
			t.Errorf("%d parity pages left %d wide spares with room %d, want %d and room %d", next/8, n, room, next/8, 3*d.Geometry().WordLinesPerBlock)
		}
		for blk := 0; blk*len(order) < next; blk++ {
			if _, err := d.Erase(BlockAddr{Chip: 3, Block: blk}, 0); err != nil {
				t.Fatal(err)
			}
		}
		next = 0
		if allocs := testing.AllocsPerRun(1, programBatch); allocs != 0 {
			t.Errorf("Program and ReadInto of %d pages after erase allocate %.0f times, want 0", batch, allocs)
		}
	})
}

// TestFTLPageRoundTrip: the FTLs' data page (pagemem.TokenBytes of token,
// its first pagemem.SpareBytes, the LPN, as the spare) programmed by
// ProgramPPN reads back through ReadPPN byte for byte, and the pair
// allocates nothing once the PageBuf has held one page. A ReadPPN into a
// zero-capacity PageBuf — every buffer's first read — still returns the
// stored bytes.
func TestFTLPageRoundTrip(t *testing.T) {
	everyLevels(t, func(t *testing.T, d *Device) {
		order := core.RelaxedFullOrder(d.Geometry().Scheme())
		lay := d.Layout()
		ppnOf := func(i int) PPN {
			return lay.PPNOf(PageAddr{BlockAddr: BlockAddr{Chip: 1, Block: i / len(order)}, Page: order[i%len(order)]})
		}
		token, spare := pattern(pagemem.TokenBytes, 1), make([]byte, pagemem.SpareBytes)
		var buf PageBuf
		next := 0
		roundTrip := func() {
			ppn := ppnOf(next)
			next++
			token[0], token[1] = byte(next), byte(next>>8)
			copy(spare, token)
			if _, err := d.ProgramPPN(ppn, token, spare, 0); err != nil {
				t.Fatal(err)
			}
			if _, err := d.ReadPPN(ppn, &buf, 0); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(buf.Data, token) || !bytes.Equal(buf.Spare, spare) {
				t.Fatalf("page %d reads back %x/%x, want %x/%x", next-1, buf.Data, buf.Spare, token, spare)
			}
		}
		const runs = 100 // plus AllocsPerRun's warm-up call
		if allocs := alloctest.Count(runs, roundTrip); allocs != 0 {
			t.Errorf("%d 9+4 ProgramPPNs and their ReadPPNs allocate %d times, want 0", runs, allocs)
		}
		if n, _ := d.WideSpares(1); n != 0 {
			t.Errorf("%d data pages left %d spares outside their records", next, n)
		}
		for i := 0; i < next; i++ {
			var fresh PageBuf
			if _, err := d.ReadPPN(ppnOf(i), &fresh, 0); err != nil {
				t.Fatal(err)
			}
			token[0], token[1] = byte(i+1), byte((i+1)>>8)
			copy(spare, token)
			if !bytes.Equal(fresh.Data, token) || !bytes.Equal(fresh.Spare, spare) {
				t.Fatalf("page %d into a zero-capacity PageBuf reads %x/%x, want %x/%x", i, fresh.Data, fresh.Spare, token, spare)
			}
		}
	})
}
