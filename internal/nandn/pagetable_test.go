package nandn

import (
	"bytes"
	"errors"
	"testing"

	"flexftl/internal/nlevel"
	"flexftl/internal/pagemem"
	"flexftl/internal/rel"
)

// The page table is the one internal/nand uses (internal/pagemem); these are
// that package's page-table tests on this device's addressing and erase.

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
	data, spare, _, err := d.Read(a, 0)
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

// TestInlineOversizeBoundary: payload and spare together fill the inline slot
// up to pagemem.InlineBytes; one byte more goes to the chip's side table.
func TestInlineOversizeBoundary(t *testing.T) {
	d := testDevice(t)
	g := d.Geometry()
	cases := []struct{ data, spare int }{
		{0, 0}, {16, 8}, {24, 0}, {0, 24}, // at most the slot
		{17, 8}, {25, 0}, {0, 25}, // the slot + 1
		{g.PageSizeBytes, g.SpareBytes}, // a full page
	}
	for blk, c := range cases {
		a := pa(1, blk, 0, 0)
		data, spare := pattern(c.data, 1), pattern(c.spare, 101)
		if _, err := d.Program(a, data, spare, 0); err != nil {
			t.Fatal(err)
		}
		gotData, gotSpare := readBoth(t, d, a)
		if !bytes.Equal(gotData, data) || !bytes.Equal(gotSpare, spare) {
			t.Errorf("%d+%dB: read back differs", c.data, c.spare)
		}
		_, inTable := d.chips[1].oversize[blk*g.PagesPerBlock()]
		if want := c.data+c.spare > pagemem.InlineBytes; inTable != want {
			t.Errorf("%d+%dB: in the oversize table = %v, want %v", c.data, c.spare, inTable, want)
		}
	}
	if d.chips[0].oversize != nil {
		t.Error("chip 0 grew an oversize table from programs on chip 1")
	}
}

// TestReprogramAcrossSlotSizes: oversize, erase, inline on one page and back;
// nothing of an earlier payload shows through, reads hand out copies, and a
// ReadInto after the re-program sees the new bytes.
func TestReprogramAcrossSlotSizes(t *testing.T) {
	d := testDevice(t)
	a := pa(0, 3, 0, 0)
	var buf PageBuf
	for i, n := range []int{40, 5, 33, 60, 24, 25, 0} {
		data, spare := pattern(n, byte(i)), pattern(i%3, byte(50+i))
		if _, err := d.Program(a, data, spare, 0); err != nil {
			t.Fatalf("program %dB: %v", n, err)
		}
		gotData, gotSpare := readBoth(t, d, a)
		if !bytes.Equal(gotData, data) || !bytes.Equal(gotSpare, spare) {
			t.Errorf("step %d (%dB): read back %x/%x, want %x/%x", i, n, gotData, gotSpare, data, spare)
		}
		if _, err := d.ReadInto(a, &buf, 0); err != nil || !bytes.Equal(buf.Data, data) {
			t.Errorf("step %d: ReadInto with a reused buffer = %x (%v), want %x", i, buf.Data, err, data)
		}
		for _, b := range [][]byte{gotData, gotSpare, buf.Data, buf.Spare} {
			for j := range b {
				b[j] ^= 0xff
			}
		}
		if again, againSpare := readBoth(t, d, a); !bytes.Equal(again, data) || !bytes.Equal(againSpare, spare) {
			t.Errorf("step %d: scribbling on read results changed the stored page", i)
		}
		if _, err := d.Erase(a.Chip, a.Block, 0); err != nil {
			t.Fatal(err)
		}
		if _, _, _, err := d.Read(a, 0); !errors.Is(err, ErrNotProgrammed) {
			t.Errorf("step %d: read after erase: %v, want ErrNotProgrammed", i, err)
		}
	}
}

// TestPowerLossFlagsSurvivePacking: a cut marks exactly the interrupted word
// line's pages, oversize neighbours stay readable, and erase + program clears
// the marks.
func TestPowerLossFlagsSurvivePacking(t *testing.T) {
	d := testDevice(t)
	big := pattern(50, 4)
	for _, p := range []nlevel.Page{{WL: 0, Level: 0}, {WL: 1, Level: 0}, {WL: 2, Level: 0}, {WL: 0, Level: 1}} {
		if _, err := d.Program(PageAddr{Chip: 2, Block: 1, Page: p}, big, nil, 0); err != nil {
			t.Fatal(err)
		}
	}
	if n := d.InjectPowerLoss(2, 1); n != 2 {
		t.Fatalf("power cut corrupted %d pages, want T0(0) and T1(0)", n)
	}
	for lvl := 0; lvl < 2; lvl++ {
		if _, _, _, err := d.Read(pa(2, 1, 0, lvl), 0); !errors.Is(err, ErrUncorrectable) {
			t.Errorf("T%d(0): %v, want ErrUncorrectable", lvl, err)
		}
	}
	if got, _ := readBoth(t, d, pa(2, 1, 1, 0)); !bytes.Equal(got, big) {
		t.Error("oversize payload beside corrupted pages unreadable")
	}
	if d.BlockProgrammed(2, 1) != 4 {
		t.Errorf("programmed pages = %d after the cut, want 4", d.BlockProgrammed(2, 1))
	}
	if _, err := d.Erase(2, 1, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := d.Program(pa(2, 1, 0, 0), []byte{9}, nil, 0); err != nil {
		t.Fatal(err)
	}
	if got, _ := readBoth(t, d, pa(2, 1, 0, 0)); len(got) != 1 || got[0] != 9 {
		t.Errorf("T0(0) after erase + program = %x: an old flag or payload survived", got)
	}
}

// TestEraseOfEmptyBlockSkipsSweep: erasing a block with nothing programmed
// since its last erase does not visit its pages, and still counts as an
// erase in every other respect.
func TestEraseOfEmptyBlockSkipsSweep(t *testing.T) {
	d := testDevice(t)
	rc := rel.DefaultConfig(1)
	if err := d.SetReliability(&rc); err != nil {
		t.Fatal(err)
	}
	// A flag the API cannot put on an erased page: if it is still there after
	// the erase, the erase did not sweep.
	canary := &d.chips[0].blockPages(1, d.Geometry().PagesPerBlock())[3]
	canary.Flags = pagemem.Corrupted
	before := d.chips[0].readyAt
	done, err := d.Erase(0, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	if canary.Flags != pagemem.Corrupted {
		t.Error("erase of an empty block swept its pages")
	}
	canary.Flags = 0
	if done != before+d.Timing().Erase {
		t.Errorf("erase done at %v, want chip ready %v + erase latency", done, before)
	}
	if d.EraseCount(0, 1) != 1 || d.Erases() != 1 {
		t.Errorf("wear = %d, device erases = %d, want 1 and 1", d.EraseCount(0, 1), d.Erases())
	}

	// A block that was programmed and read is swept, its read-disturb count
	// and in-flight refinement forgotten; a second erase finds it empty.
	for _, p := range []nlevel.Page{{WL: 0, Level: 0}, {WL: 1, Level: 0}, {WL: 0, Level: 1}} {
		if _, err := d.Program(PageAddr{Chip: 0, Block: 1, Page: p}, []byte("y"), nil, done); err != nil {
			t.Fatal(err)
		}
	}
	if _, _, _, err := d.Read(pa(0, 1, 0, 0), 0); err != nil {
		t.Fatal(err)
	}
	if d.chips[0].blocks[1].readCount != 1 {
		t.Fatal("programmed block has no read count")
	}
	for i := 0; i < 2; i++ {
		if _, err := d.Erase(0, 1, 0); err != nil {
			t.Fatal(err)
		}
		if d.BlockProgrammed(0, 1) != 0 || d.chips[0].blocks[1].readCount != 0 || d.InjectPowerLoss(0, 1) != 0 {
			t.Errorf("erase %d left state behind", i+1)
		}
		if _, _, _, err := d.Read(pa(0, 1, 0, 0), 0); !errors.Is(err, ErrNotProgrammed) {
			t.Errorf("erase %d: page still readable: %v", i+1, err)
		}
	}
	if d.EraseCount(0, 1) != 3 {
		t.Errorf("wear = %d, want 3", d.EraseCount(0, 1))
	}
}

// TestPageTableAllocations: the page array is one allocation, so building a
// device costs the same number of allocations however many pages a block has,
// and programming an FTL-sized payload never allocates — not on first touch,
// not after an erase (which used to drop the payload capacity).
func TestPageTableAllocations(t *testing.T) {
	build := func(wordLines int) float64 {
		g := TLCGeometry()
		g.BlocksPerChip = 8
		g.WordLinesPerBlock = wordLines
		return testing.AllocsPerRun(5, func() {
			if _, err := NewDevice(g, TLCTiming()); err != nil {
				t.Fatal(err)
			}
		})
	}
	if small, large := build(4), build(64); small != large {
		t.Errorf("NewDevice: %.0f allocations at 4 word lines, %.0f at 64", small, large)
	}

	d := testDevice(t)
	order := nlevel.RelaxedFullOrder(d.Geometry().Scheme())
	token, spare := pattern(16, 1), pattern(8, 2)
	next := 0
	programNext := func() {
		a := PageAddr{Chip: 3, Block: next / len(order), Page: order[next%len(order)]}
		if _, err := d.Program(a, token, spare, 0); err != nil {
			t.Fatal(err)
		}
		next++
	}
	const runs = 80 // plus AllocsPerRun's warm-up call: 7 of the chip's 8 blocks
	if allocs := testing.AllocsPerRun(runs, programNext); allocs != 0 {
		t.Errorf("first-touch Program allocates %.2f times per page, want 0", allocs)
	}
	for blk := 0; blk*len(order) < next; blk++ {
		if _, err := d.Erase(3, blk, 0); err != nil {
			t.Fatal(err)
		}
	}
	next = 0
	if allocs := testing.AllocsPerRun(runs, programNext); allocs != 0 {
		t.Errorf("Program after erase allocates %.2f times per page, want 0", allocs)
	}
}
