package nand_test

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"flexftl/internal/alloctest"
	"flexftl/internal/core"
	"flexftl/internal/experiments"
	"flexftl/internal/nand"
	"flexftl/internal/pagemem"
	"flexftl/internal/rel"
	"flexftl/internal/sim"
)

// layoutGeometries are the shapes the layout is pinned on: the unit-test
// MLC device, the TLC one, a QLC variant, the evaluation device and an odd
// one where no dimension is a power of two.
func layoutGeometries() []nand.Geometry {
	qlc := nand.TestGeometry()
	qlc.Levels = 4
	return []nand.Geometry{
		nand.TestGeometry(),
		nand.TLCGeometry(),
		qlc,
		experiments.EvalGeometry(),
		{Channels: 3, ChipsPerChannel: 3, BlocksPerChip: 37, WordLinesPerBlock: 11, PageSizeBytes: 64, SpareBytes: 16},
	}
}

// timingFor returns a valid timing for the geometry's cell.
func timingFor(g nand.Geometry) nand.Timing {
	if g.BitsPerCell() == 2 {
		return nand.DefaultTiming()
	}
	t := nand.TLCTiming()
	t.ProgFiner[1] = 2 * t.ProgFiner[0]
	return t
}

func newLayoutDevice(t *testing.T, g nand.Geometry, rc *rel.Config) *nand.Device {
	t.Helper()
	d, err := nand.NewDevice(nand.Config{Geometry: g, Timing: timingFor(g), Rules: core.RPS, Reliability: rc})
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// TestLayoutMatchesGeometry: on every page of every pinned geometry the
// device's layout numbers and splits pages exactly as the reference
// Geometry.PPNOf / AddrOfPPN do, and ranges end where the device does.
func TestLayoutMatchesGeometry(t *testing.T) {
	for _, g := range layoutGeometries() {
		lay := newLayoutDevice(t, g, nil).Layout()
		total := g.TotalPages()
		if lay.Pages() != total || lay.Blocks() != g.TotalBlocks() || lay.PagesPerBlock() != g.PagesPerBlock() {
			t.Fatalf("%v: layout sizes %d pages, %d blocks, %d per block", g, lay.Pages(), lay.Blocks(), lay.PagesPerBlock())
		}
		bad := 0
		for p := 0; p < total && bad < 10; p++ {
			ppn := nand.PPN(p)
			want := g.AddrOfPPN(ppn)
			chip, blk, idx := want.Chip, want.Block, want.Page.Index(g.WordLinesPerBlock)
			flat := lay.FlatBlock(ppn)
			ok := lay.InRange(ppn) &&
				lay.Addr(ppn) == want &&
				lay.ChipOf(ppn) == want.Chip &&
				flat == want.Chip*g.BlocksPerChip+want.Block &&
				lay.BlockOfFlat(flat) == want.BlockAddr && lay.FlatOf(want.BlockAddr) == flat &&
				lay.PPN(chip, blk, idx) == ppn && lay.PPNOf(want) == ppn && g.PPNOf(want) == ppn
			if !ok {
				bad++
				t.Errorf("%v: page %d: layout %v (chip %d, flat block %d), reference %v",
					g, p, lay.Addr(ppn), lay.ChipOf(ppn), flat, want)
			}
		}
		for _, ppn := range []nand.PPN{-1, nand.PPN(total), nand.PPN(total) + 1, nand.InvalidPPN} {
			if lay.InRange(ppn) {
				t.Errorf("%v: page number %d in range", g, ppn)
			}
		}
	}
}

// errClass names the sentinel a read error wraps.
func errClass(err error) string {
	switch {
	case err == nil:
		return "ok"
	case errors.Is(err, nand.ErrNotProgrammed):
		return "erased"
	case errors.Is(err, nand.ErrUncorrectable):
		return "corrupted"
	case errors.Is(err, rel.ErrUncorrectable):
		return "lost"
	}
	return "other"
}

// fillForReads programs a varying prefix of each block's fixed order —
// inline and oversize payloads alike — then corrupts every fifth and pins
// every seventh programmed page lost. Two devices driven through it end in
// the same state.
func fillForReads(t *testing.T, d *nand.Device) {
	t.Helper()
	g := d.Geometry()
	order := core.FixedOrder(g.Scheme())
	var now sim.Time
	for flat := 0; flat < g.TotalBlocks(); flat++ {
		ba := nand.BlockAddr{Chip: flat / g.BlocksPerChip, Block: flat % g.BlocksPerChip}
		n := (flat * 7) % (len(order) + 1)
		for i, p := range order[:n] {
			a := nand.PageAddr{BlockAddr: ba, Page: p}
			data, spare := []byte(fmt.Sprintf("page %v", a)), []byte{byte(flat), byte(i)}
			switch i % 9 {
			case 1, 2: // an FTL page: a token with its LPN or a block number as spare
				data = data[len(data)-pagemem.TokenBytes:] // the tail, which names the page
				spare = []byte{byte(flat), byte(i), 0, 0}
				if i%9 == 1 {
					spare = data[:pagemem.SpareBytes]
				}
			case 4:
				data = append(data, make([]byte, pagemem.InlineBytes)...) // past the inline slot
			}
			done, err := d.Program(a, data, spare, now)
			if err != nil {
				t.Fatal(err)
			}
			now = done
			switch {
			case (flat+i)%5 == 0:
				if err := d.CorruptPage(a); err != nil {
					t.Fatal(err)
				}
			case (flat+i)%7 == 0:
				if err := d.MarkLost(a); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
}

// TestReadPPNMatchesReadInto: two devices in the same state, one read by
// address and one by page number, in lockstep over every page for several
// rounds — completion time, payload (the one programmed at that address),
// spare and error agree, for erased,
// programmed, corrupted and lost pages, with and without the BER model. The
// model-on device is pre-worn so that the model's own outcomes (retries and
// uncorrectable reads) occur too.
func TestReadPPNMatchesReadInto(t *testing.T) {
	for _, g := range layoutGeometries() {
		for _, model := range []bool{false, true} {
			var rc *rel.Config
			if model {
				c := rel.DefaultConfig(7)
				rc = &c
			}
			byAddr, byPPN := newLayoutDevice(t, g, rc), newLayoutDevice(t, g, rc)
			if model {
				for _, d := range []*nand.Device{byAddr, byPPN} {
					for flat := 0; flat < g.TotalBlocks(); flat++ {
						for i := 0; i < flat%4*3000; i++ {
							if _, err := d.Erase(nand.BlockAddr{Chip: flat / g.BlocksPerChip, Block: flat % g.BlocksPerChip}, 0); err != nil {
								t.Fatal(err)
							}
						}
					}
				}
			}
			fillForReads(t, byAddr)
			fillForReads(t, byPPN)
			classes := map[string]int{}
			var bufA, bufP nand.PageBuf
			now := sim.Time(0)
			for round := 0; round < 3; round++ {
				now += 60 * 24 * sim.Time(3600) * sim.Second // retention ages the model's pages
				for p := 0; p < g.TotalPages(); p++ {
					ppn := nand.PPN(p)
					a := g.AddrOfPPN(ppn)
					doneA, errA := byAddr.ReadInto(a, &bufA, now)
					doneP, errP := byPPN.ReadPPN(ppn, &bufP, now)
					classes[errClass(errP)]++
					if want := fmt.Sprintf("page %v", a); errP == nil && !strings.HasPrefix(string(bufP.Data), want) &&
						!(len(bufP.Data) == pagemem.TokenBytes && strings.HasSuffix(want, string(bufP.Data))) {
						t.Fatalf("%v model=%v page %d (%v): ReadPPN returned %q", g, model, p, a, bufP.Data)
					}
					if doneA != doneP || errClass(errA) != errClass(errP) ||
						fmt.Sprint(errA) != fmt.Sprint(errP) ||
						string(bufA.Data) != string(bufP.Data) || string(bufA.Spare) != string(bufP.Spare) {
						t.Fatalf("%v model=%v page %d (%v): ReadInto (%v, %v, %q/%q), ReadPPN (%v, %v, %q/%q)",
							g, model, p, a, doneA, errA, bufA.Data, bufA.Spare, doneP, errP, bufP.Data, bufP.Spare)
					}
				}
			}
			if byAddr.RelCounts() != byPPN.RelCounts() || byAddr.Counts() != byPPN.Counts() {
				t.Errorf("%v model=%v: counters diverged: %+v %+v / %+v %+v", g, model,
					byAddr.RelCounts(), byAddr.Counts(), byPPN.RelCounts(), byPPN.Counts())
			}
			for _, c := range []string{"ok", "erased", "corrupted", "lost"} {
				if classes[c] == 0 {
					t.Errorf("%v model=%v: no %s reads: %v", g, model, c, classes)
				}
			}
			t.Logf("%v model=%v: %v, %+v", g, model, classes, byPPN.RelCounts())
			if model && byPPN.RelCounts().Uncorrectable == 0 {
				t.Errorf("%v: the BER model never ruled a read uncorrectable: %+v", g, byPPN.RelCounts())
			}
		}
	}
}

// TestPPNOutOfRange: page numbers outside the device are errors from both
// page-number entry points, never a panic, and leave the buffer empty.
func TestPPNOutOfRange(t *testing.T) {
	g := nand.TestGeometry()
	d := newLayoutDevice(t, g, nil)
	buf := nand.PageBuf{Data: []byte("stale"), Spare: []byte("stale")}
	for _, ppn := range []nand.PPN{-1, nand.PPN(g.TotalPages()), nand.PPN(g.TotalPages()) + 1, -1 << 40} {
		if done, err := d.ReadPPN(ppn, &buf, 5); err == nil || done != 5 || len(buf.Data) != 0 || len(buf.Spare) != 0 {
			t.Errorf("ReadPPN(%d) = %v, %v, buffer %q/%q", ppn, done, err, buf.Data, buf.Spare)
		}
		if done, err := d.ProgramPPN(ppn, []byte("x"), nil, 5); err == nil || done != 5 {
			t.Errorf("ProgramPPN(%d) = %v, %v", ppn, done, err)
		}
	}
	if c := d.Counts(); c.Reads != 0 || c.Programs() != 0 {
		t.Errorf("out-of-range operations reached the array: %+v", c)
	}
}

// TestNewDeviceCapacityError: a geometry of nand.MaxPages pages or more is a
// typed *CapacityError from NewDevice, decided before anything is allocated
// (these devices are never built: the last would need 2^64 page records).
// One page under the bound is accepted by the check.
func TestNewDeviceCapacityError(t *testing.T) {
	for _, g := range []nand.Geometry{
		{Channels: 1, ChipsPerChannel: 1, BlocksPerChip: 1, WordLinesPerBlock: 1 << 30},
		{Channels: 8, ChipsPerChannel: 16, BlocksPerChip: 4096, WordLinesPerBlock: 1024, Levels: 4},
		{Channels: 1 << 16, ChipsPerChannel: 1 << 16, BlocksPerChip: 1 << 16, WordLinesPerBlock: 1 << 16},
	} {
		g.PageSizeBytes, g.SpareBytes = 4096, 64
		cfg := nand.Config{Geometry: g, Timing: timingFor(g)}
		var err error
		const runs = 3
		allocs := alloctest.Count(runs, func() { _, err = nand.NewDevice(cfg) })
		var ce *nand.CapacityError
		if !errors.As(err, &ce) || ce.Pages <= nand.MaxPages {
			t.Errorf("%v: NewDevice = %v, want a *nand.CapacityError above %d pages", g, err, nand.MaxPages)
		}
		if allocs > runs {
			t.Errorf("%v: refusing the device %d times took %d allocations, want the error's one each", g, runs, allocs)
		}
	}
	under := nand.Geometry{Channels: 1, ChipsPerChannel: 1, BlocksPerChip: 1, WordLinesPerBlock: (1 << 30) - 1}
	if err := nand.CheckCapacity(under); err != nil {
		t.Errorf("%d pages refused: %v", nand.MaxPages, err)
	}
}
