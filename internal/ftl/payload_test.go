package ftl

import (
	"testing"

	"flexftl/internal/nand"
	"flexftl/internal/pagemem"
	"flexftl/internal/parity"
	"flexftl/internal/rng"
	"flexftl/internal/sim"
)

// TestPayloadsFitInline: everything the FTLs program is one of the three
// shapes the device's page record stores in place — a data page (token and
// spare), a parity page (token, no spare) and a pad (nothing) — so no FTL
// program takes the oversize path. A token and a spare fill the slot
// exactly, every spare encoder writes SpareSize bytes, every parity
// accumulator of every registered kernel is TokenSize wide, the largest LPN
// a device can hold round-trips through a token with the largest sequence
// number a token stores (MaxSeq), and every page every registered kernel
// leaves programmed after sustained writes, GC and idle windows reads back
// in one of the three shapes.
func TestPayloadsFitInline(t *testing.T) {
	if TokenSize+SpareSize != pagemem.InlineBytes {
		t.Errorf("TokenSize %d + SpareSize %d != pagemem.InlineBytes %d", TokenSize, SpareSize, pagemem.InlineBytes)
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
			for ppn := nand.PPN(0); ppn < nand.PPN(dev.Layout().Pages()); ppn++ {
				if _, err := dev.ReadPPN(ppn, &buf, 0); err != nil {
					continue // erased
				}
				sh := shape{len(buf.Data), len(buf.Spare)}
				if !inline[sh] {
					t.Fatalf("%s: page %d holds a %d+%d-byte program, not an inline shape", name, ppn, sh.data, sh.spare)
				}
				seen[sh]++
			}
		}
	}
	t.Logf("programmed pages by data+spare shape over all scans: %v", seen)
	for sh := range inline {
		if seen[sh] == 0 {
			t.Errorf("no %d+%d-byte page in any scan (%v): the check misses a shape", sh.data, sh.spare, seen)
		}
	}
}
