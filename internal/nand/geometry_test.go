package nand

import (
	"testing"
	"testing/quick"

	"flexftl/internal/core"
)

func TestDefaultGeometryMatchesPaper(t *testing.T) {
	g := DefaultGeometry()
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	if g.Chips() != 32 {
		t.Errorf("chips = %d, want 32 (8 channels x 4)", g.Chips())
	}
	if g.PagesPerBlock() != 256 {
		t.Errorf("pages/block = %d, want 256", g.PagesPerBlock())
	}
	if got := g.CapacityBytes(); got != 16<<30 {
		t.Errorf("capacity = %d, want 16 GiB", got)
	}
}

func TestGeometryValidate(t *testing.T) {
	bad := []Geometry{
		{Channels: 0, ChipsPerChannel: 1, BlocksPerChip: 1, WordLinesPerBlock: 1, PageSizeBytes: 1},
		{Channels: 1, ChipsPerChannel: 0, BlocksPerChip: 1, WordLinesPerBlock: 1, PageSizeBytes: 1},
		{Channels: 1, ChipsPerChannel: 1, BlocksPerChip: 0, WordLinesPerBlock: 1, PageSizeBytes: 1},
		{Channels: 1, ChipsPerChannel: 1, BlocksPerChip: 1, WordLinesPerBlock: 0, PageSizeBytes: 1},
		{Channels: 1, ChipsPerChannel: 1, BlocksPerChip: 1, WordLinesPerBlock: 1, PageSizeBytes: 0},
		{Channels: 1, ChipsPerChannel: 1, BlocksPerChip: 1, WordLinesPerBlock: 1, PageSizeBytes: 1, SpareBytes: -1},
		{Channels: 1, ChipsPerChannel: 1, BlocksPerChip: 1, WordLinesPerBlock: 1, PageSizeBytes: 1, Levels: 1},
		{Channels: 1, ChipsPerChannel: 1, BlocksPerChip: 1, WordLinesPerBlock: 1, PageSizeBytes: 1, Levels: MaxLevels + 1},
	}
	for i, g := range bad {
		if err := g.Validate(); err == nil {
			t.Errorf("case %d: invalid geometry accepted: %+v", i, g)
		}
	}
	g := TLCGeometry()
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	if g.Chips() != 4 || g.PagesPerBlock() != 96 || g.TotalBlocks() != 256 || g.TotalPages() != 256*96 {
		t.Errorf("TLC geometry arithmetic wrong: %v", g)
	}
	// The zero value of Levels is the paper's MLC, and prints as it always did.
	mlc, explicit := TestGeometry(), TestGeometry()
	explicit.Levels = 2
	if mlc.Scheme() != core.MLC(8) || mlc.PagesPerBlock() != explicit.PagesPerBlock() || mlc.String() != explicit.String() {
		t.Errorf("Levels 0 and 2 differ: %v vs %v", mlc, explicit)
	}
}

func TestChannelOf(t *testing.T) {
	g := DefaultGeometry()
	if g.ChannelOf(0) != 0 || g.ChannelOf(3) != 0 || g.ChannelOf(4) != 1 || g.ChannelOf(31) != 7 {
		t.Error("ChannelOf mapping wrong")
	}
}

func TestPPNRoundTrip(t *testing.T) {
	for levels := 2; levels <= MaxLevels; levels++ {
		g := TestGeometry()
		g.Levels = levels
		testPPNRoundTrip(t, g)
	}
}

func testPPNRoundTrip(t *testing.T, g Geometry) {
	seen := make(map[PPN]bool)
	for chip := 0; chip < g.Chips(); chip++ {
		for blk := 0; blk < g.BlocksPerChip; blk++ {
			for idx := 0; idx < g.PagesPerBlock(); idx++ {
				a := PageAddr{
					BlockAddr: BlockAddr{Chip: chip, Block: blk},
					Page:      core.PageFromIndex(idx, g.WordLinesPerBlock),
				}
				ppn := g.PPNOf(a)
				if ppn < 0 || int64(ppn) >= int64(g.TotalPages()) {
					t.Fatalf("PPN %d out of range for %v", ppn, a)
				}
				if seen[ppn] {
					t.Fatalf("PPN %d duplicated", ppn)
				}
				seen[ppn] = true
				if back := g.AddrOfPPN(ppn); back != a {
					t.Fatalf("round trip %v -> %d -> %v", a, ppn, back)
				}
			}
		}
	}
	if len(seen) != g.TotalPages() {
		t.Errorf("covered %d PPNs, want %d", len(seen), g.TotalPages())
	}
}

func TestPPNRoundTripPropertyDefaultGeometry(t *testing.T) {
	g := DefaultGeometry()
	f := func(raw uint64) bool {
		ppn := PPN(raw % uint64(g.TotalPages()))
		return g.PPNOf(g.AddrOfPPN(ppn)) == ppn
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

func TestTimingDefaults(t *testing.T) {
	tm := DefaultTiming()
	if err := tm.Validate(2); err != nil {
		t.Fatal(err)
	}
	if tm.Asymmetry() != 4.0 {
		t.Errorf("asymmetry = %v, want 4.0 (2000us/500us)", tm.Asymmetry())
	}
}

func TestTimingValidate(t *testing.T) {
	tm := DefaultTiming()
	tm.ProgMSB = tm.ProgLSB / 2
	if err := tm.Validate(2); err == nil {
		t.Error("inverted asymmetry accepted")
	}
	tm = DefaultTiming()
	tm.Read = 0
	if err := tm.Validate(2); err == nil {
		t.Error("zero read latency accepted")
	}
	tm = DefaultTiming()
	tm.BusXfer = -1
	if err := tm.Validate(2); err == nil {
		t.Error("negative bus transfer accepted")
	}
	// Finer levels: TLC timing serves a TLC device (and an MLC one, which
	// ignores the third latency), not a QLC one; refinements never get faster.
	tlc := TLCTiming()
	if tlc.Validate(3) != nil || tlc.Validate(2) != nil {
		t.Error("TLC timing rejected")
	}
	if err := tlc.Validate(4); err == nil {
		t.Error("TLC timing accepted for four levels")
	}
	tlc.ProgFiner[0] = tlc.ProgMSB - 1
	if err := tlc.Validate(3); err == nil {
		t.Error("third level faster than MSB accepted")
	}
	// Timing stays a plain value: two copies of a preset never alias.
	a, b := TLCTiming(), TLCTiming()
	a.ProgFiner[0]++
	if b != TLCTiming() {
		t.Error("presets share storage")
	}
}
