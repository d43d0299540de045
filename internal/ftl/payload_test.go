package ftl

import (
	"bytes"
	"testing"

	"flexftl/internal/core"
	"flexftl/internal/nand"
	"flexftl/internal/pagemem"
	"flexftl/internal/parity"
	"flexftl/internal/rng"
	"flexftl/internal/sim"
)

// TestPayloadsFitInline: everything the FTLs program is one of the three
// shapes the device's page record stores in place — a token and a spare, a
// token alone (FPS parity) and a pad (nothing) — so no FTL program takes the
// oversize path. A token fills the slot exactly, every spare encoder writes
// SpareSize bytes, every parity accumulator of every registered kernel is
// TokenSize wide, the largest LPN a device can hold round-trips through a
// token with the largest sequence number a token stores (MaxSeq), and every
// page every registered kernel leaves programmed after sustained writes, GC
// and idle windows reads back in one of the three shapes. A data page's
// spare is its token's first SpareSize bytes, which the record stores once;
// a spare that is not (a block number) is only ever on a parity page of a
// backup block, and no chip keeps more of them than its wide-spare room.
func TestPayloadsFitInline(t *testing.T) {
	if TokenSize != pagemem.InlineBytes {
		t.Errorf("TokenSize %d != pagemem.InlineBytes %d", TokenSize, pagemem.InlineBytes)
	}

	dev, err := nand.NewDevice(nand.Config{Geometry: nand.TestGeometry(), Timing: nand.DefaultTiming()})
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewBase(dev, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	const lpn = LPN(nand.MaxPages - 1)
	for name, sp := range map[string][]byte{
		"Spare":         b.Spare(lpn),
		"SpareForLPN":   SpareForLPN(lpn),
		"spareForBlock": spareForBlock(1<<30 - 1),
	} {
		if len(sp) != SpareSize {
			t.Errorf("%s encodes %d bytes, want SpareSize %d", name, len(sp), SpareSize)
		}
	}
	if got, ok := LPNFromSpare(b.Spare(lpn)); !ok || got != lpn {
		t.Errorf("LPNFromSpare(Spare(%d)) = %d,%v", lpn, got, ok)
	}
	if got, ok := blockFromSpare(spareForBlock(1<<30 - 1)); !ok || got != 1<<30-1 {
		t.Errorf("blockFromSpare(spareForBlock(2^30-1)) = %d,%v", got, ok)
	}

	b.seq = MaxSeq - 1 // Token advances it to MaxSeq
	tok := b.Token(lpn)
	if len(tok) != TokenSize {
		t.Errorf("Token is %d bytes, want TokenSize %d", len(tok), TokenSize)
	}
	if got, ok := TokenLPN(tok); !ok || got != lpn {
		t.Errorf("TokenLPN = %d,%v, want %d", got, ok, lpn)
	}
	if got := TokenSeq(tok); got != MaxSeq {
		t.Errorf("TokenSeq = %d, want MaxSeq %d", got, uint64(MaxSeq))
	}
	if got := TokenSeq(tok[:TokenSize-1]); got != 0 {
		t.Errorf("TokenSeq of a short payload = %d, want 0", got)
	}

	checked := 0
	for _, name := range Names() {
		f, err := BuildFTL(name, BuildEnv{Geometry: nand.TestGeometry(), Config: DefaultConfig(), Flex: DefaultFlexParams()})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		k, ok := f.(*Kernel)
		if !ok {
			continue
		}
		var accs []*parity.Buffer
		switch bk := k.bk.(type) {
		case *pairParity:
			for c := range bk.pbuf {
				accs = append(accs, &bk.pbuf[c])
			}
		case *blockParity:
			for _, perStream := range bk.pbuf {
				for s := range perStream {
					accs = append(accs, &perStream[s])
				}
			}
		}
		checked += len(accs)
		for _, acc := range accs {
			if acc.Width() != TokenSize {
				t.Errorf("%s: parity accumulator is %d bytes wide, want TokenSize %d", name, acc.Width(), TokenSize)
				break
			}
		}
	}
	if checked == 0 {
		t.Error("no registered kernel has a parity accumulator to check")
	}

	type shape struct{ data, spare int }
	inline := map[shape]bool{{TokenSize, SpareSize}: true, {TokenSize, 0}: true, {0, 0}: true}
	seen := map[shape]int{}
	for _, name := range Names() {
		f, err := BuildFTL(name, BuildEnv{Geometry: nand.TestGeometry(), Config: DefaultConfig(), Flex: DefaultFlexParams()})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		dev, logical := f.Device(), f.LogicalPages()
		g := dev.Geometry()
		// A kernel names its backup blocks; the TLC engine's parity pages
		// are only known to be on LSB pages.
		k, isKernel := f.(*Kernel)
		var bp *blockParity
		if isKernel {
			bp, _ = k.bk.(*blockParity)
		}
		_, room := dev.WideSpares(0)
		r := rng.New(7)
		now := sim.Time(0)
		var buf nand.PageBuf
		for pass := 0; pass < 4; pass++ {
			for i := int64(0); i < logical; i++ {
				if now, err = f.Write(LPN(r.Int63n(logical)), now, r.Float64()); err != nil {
					t.Fatalf("%s: %v", name, err)
				}
			}
			f.Idle(now, now+sim.Second)
			now += sim.Second
			foreign := make([]int, g.Chips())
			for ppn := nand.PPN(0); ppn < nand.PPN(dev.Layout().Pages()); ppn++ {
				if _, err := dev.ReadPPN(ppn, &buf, 0); err != nil {
					continue // erased
				}
				sh := shape{len(buf.Data), len(buf.Spare)}
				if !inline[sh] {
					t.Fatalf("%s: page %d holds a %d+%d-byte program, not an inline shape", name, ppn, sh.data, sh.spare)
				}
				seen[sh]++
				if sh.spare == 0 || bytes.Equal(buf.Spare, buf.Data[:SpareSize]) {
					continue
				}
				a := dev.Layout().Addr(ppn)
				if a.Page.Type != core.LSB || isKernel && (bp == nil || !bp.backupBlockSet(a.Chip)[a.Block]) {
					t.Fatalf("%s: page %d (%v) has spare %x, not its token's first %d bytes %x, and is no backup block's parity page",
						name, ppn, a, buf.Spare, SpareSize, buf.Data[:SpareSize])
				}
				foreign[a.Chip]++
				seen[shape{-TokenSize, -SpareSize}]++
			}
			for c := range foreign {
				if n, r := dev.WideSpares(c); n != foreign[c] || r != room {
					t.Errorf("%s, pass %d: chip %d keeps %d wide spares for %d parity pages and has room for %d, want the %d it was built with",
						name, pass, c, n, foreign[c], r, room)
				}
			}
		}
	}
	t.Logf("programmed pages by data+spare shape over all scans (negative: a token with a foreign spare): %v", seen)
	if seen[shape{-TokenSize, -SpareSize}] == 0 {
		t.Error("no parity page with a block number in its spare in any scan: the check misses the wide list")
	}
	delete(seen, shape{-TokenSize, -SpareSize})
	for sh := range inline {
		if seen[sh] == 0 {
			t.Errorf("no %d+%d-byte page in any scan (%v): the check misses a shape", sh.data, sh.spare, seen)
		}
	}
}
