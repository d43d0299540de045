package pagemem

import (
	"bytes"
	"testing"
	"unsafe"
)

func fill(n int, seed byte) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = seed + byte(i)
	}
	return b
}

// TestPageIsFlat: the record is what a device multiplies by its page count —
// a flags byte and the inline slot, 14 bytes on every target: no length
// bytes, no word-sized field to pad it, no pointers for the collector to
// trace.
func TestPageIsFlat(t *testing.T) {
	if got, want := unsafe.Sizeof(Page{}), uintptr(1+InlineBytes); got != want {
		t.Errorf("Page is %d bytes, want %d", got, want)
	}
}

// inline reports whether a payload shape is one the record stores in place:
// the three the FTLs program.
func inline(data, spare int) bool {
	return data == TokenBytes && (spare == SpareBytes || spare == 0) || data == 0 && spare == 0
}

// TestStoreLoad: the three shapes the FTLs program — a data page (9+4), an
// FPS parity page (9+0) and a pad (0+0) — are stored inline, and every other
// shape goes to the side table; Store leaves only Programmed set. Every split
// of up to InlineBytes and a few larger shapes round-trip through Load into
// empty buffers, into buffers that already hold an FTL page, and into longer
// ones, and PeekSpare returns the first SpareBytes of every spare that has
// them.
func TestStoreLoad(t *testing.T) {
	type split struct{ data, spare int }
	var splits []split
	for d := 0; d <= InlineBytes; d++ {
		for sp := 0; d+sp <= InlineBytes; sp++ {
			splits = append(splits, split{d, sp})
		}
	}
	splits = append(splits, split{InlineBytes + 1, 0}, split{0, InlineBytes + 1}, split{InlineBytes, 1}, split{4096, 64})
	for _, c := range splits {
		var side Oversize
		p := Page{Flags: Corrupted | Lost}
		data, spare := fill(c.data, 1), fill(c.spare, 200)
		p.Store(&side, 7, data, spare)
		if p.Flags&^shape != Programmed {
			t.Errorf("%d+%dB: flags after Store = %b, want Programmed alone", c.data, c.spare, p.Flags)
		}
		if want := !inline(c.data, c.spare); (len(side) == 1) != want || (p.Flags&oversize != 0) != want {
			t.Errorf("%d+%dB: side table has %d entries, oversize flag %v, want oversize = %v",
				c.data, c.spare, len(side), p.Flags&oversize != 0, want)
		}
		for _, dst := range []struct {
			name        string
			data, spare []byte
		}{
			{"empty", nil, nil},
			{"FTL-sized", make([]byte, 0, TokenBytes), make([]byte, 0, SpareBytes)},
			{"longer", fill(40, 77), fill(9, 66)},
		} {
			gotData, gotSpare := p.Load(side, 7, dst.data, dst.spare)
			if !bytes.Equal(gotData, data) || !bytes.Equal(gotSpare, spare) {
				t.Errorf("%d+%dB into %s buffers: Load = %x/%x, want %x/%x", c.data, c.spare, dst.name, gotData, gotSpare, data, spare)
			}
		}
		p.Flags |= Corrupted | Lost
		got, ok := p.PeekSpare(side, 7)
		if want := c.spare >= SpareBytes; ok != want || ok && !bytes.Equal(got[:], spare[:SpareBytes]) {
			t.Errorf("%d+%dB: PeekSpare = %x,%v, want %x,%v", c.data, c.spare, got, ok, spare[:min(c.spare, SpareBytes)], want)
		}
		p.Flags = 0
		if _, ok := p.PeekSpare(side, 7); ok {
			t.Errorf("%d+%dB: PeekSpare of the erased page reports a spare", c.data, c.spare)
		}
	}

	// An FTL page's bytes stay in the record after an erase; an oversize
	// program over it must still read back from the side table.
	var side Oversize
	var p Page
	p.Store(&side, 3, fill(TokenBytes, 5), fill(SpareBytes, 6))
	p.Flags = 0
	big := fill(100, 3)
	p.Store(&side, 3, big, nil)
	if gotData, gotSpare := p.Load(side, 3, make([]byte, 0, 128), make([]byte, 0, 8)); !bytes.Equal(gotData, big) || len(gotSpare) != 0 {
		t.Errorf("oversize program over an erased FTL page reads back %d+%d bytes, want %d+0", len(gotData), len(gotSpare), len(big))
	}
}

// TestOversizeEntryOutlivesErase: an erase is Flags = 0 and never touches the
// side table; the stale entry is unreachable from an inline program of the
// page (a parity page's token with no spare), and the next oversize program
// reuses its capacity.
func TestOversizeEntryOutlivesErase(t *testing.T) {
	var side Oversize
	var p Page
	big := fill(100, 3)
	p.Store(&side, 0, big, nil)
	p.Flags = 0
	small := fill(TokenBytes, 9)
	p.Store(&side, 0, small, nil)
	if got, _ := p.Load(side, 0, nil, nil); !bytes.Equal(got, small) {
		t.Errorf("inline program over a stale oversize entry reads back %x, want %x", got, small)
	}
	p.Flags = 0
	shorter := fill(60, 5)
	if allocs := testing.AllocsPerRun(10, func() { p.Store(&side, 0, shorter, nil) }); allocs != 0 {
		t.Errorf("oversize re-program of the page allocates %.0f times, want 0", allocs)
	}
	if got, _ := p.Load(side, 0, nil, nil); !bytes.Equal(got, shorter) {
		t.Errorf("oversize re-program reads back %d bytes, want the %d just stored", len(got), len(shorter))
	}
}
