package ftl

import (
	"testing"

	"flexftl/internal/nand"
	"flexftl/internal/pagemem"
	"flexftl/internal/parity"
)

// TestPayloadsFitInline: everything the FTLs program fits the device's inline
// page slot, so no FTL program takes the oversize path. A token and a spare
// fill the slot exactly, every spare encoder writes SpareSize bytes, every
// parity accumulator of every registered kernel is TokenSize wide, and the
// largest LPN a device can hold round-trips through a token with a sequence
// number past 32 bits.
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

	b.seq = 1<<40 - 1 // Token advances it to 2^40
	tok := b.Token(lpn)
	if len(tok) != TokenSize {
		t.Errorf("Token is %d bytes, want TokenSize %d", len(tok), TokenSize)
	}
	if got, ok := TokenLPN(tok); !ok || got != lpn {
		t.Errorf("TokenLPN = %d,%v, want %d", got, ok, lpn)
	}
	if got := TokenSeq(tok); got != 1<<40 {
		t.Errorf("TokenSeq = %d, want 2^40", got)
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
}
