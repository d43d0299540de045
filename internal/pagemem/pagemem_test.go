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
// flags, two length bytes and the inline slot, 19 bytes on every target: no
// word-sized field to pad it, no pointers for the collector to trace.
func TestPageIsFlat(t *testing.T) {
	if got, want := unsafe.Sizeof(Page{}), uintptr(3+InlineBytes); got != want {
		t.Errorf("Page is %d bytes, want %d", got, want)
	}
}

// TestStoreLoad: the inline slot takes data and spare together up to
// InlineBytes, the side table the rest; Store leaves only Programmed set.
func TestStoreLoad(t *testing.T) {
	for _, c := range []struct{ data, spare int }{
		{0, 0}, {12, 4}, {InlineBytes, 0}, {0, InlineBytes}, {1, InlineBytes - 1},
		{InlineBytes + 1, 0}, {0, InlineBytes + 1}, {InlineBytes, 1}, {4096, 64},
	} {
		var side Oversize
		p := Page{Flags: Corrupted | Lost}
		data, spare := fill(c.data, 1), fill(c.spare, 200)
		p.Store(&side, 7, data, spare)
		if p.Flags&^oversize != Programmed {
			t.Errorf("%d+%dB: flags after Store = %b, want Programmed alone", c.data, c.spare, p.Flags)
		}
		if want := c.data+c.spare > InlineBytes; (len(side) == 1) != want || (p.Flags&oversize != 0) != want {
			t.Errorf("%d+%dB: side table has %d entries, oversize flag %v, want oversize = %v",
				c.data, c.spare, len(side), p.Flags&oversize != 0, want)
		}
		gotData, gotSpare := p.Load(side, 7)
		if !bytes.Equal(gotData, data) || !bytes.Equal(gotSpare, spare) {
			t.Errorf("%d+%dB: Load = %x/%x, want %x/%x", c.data, c.spare, gotData, gotSpare, data, spare)
		}
	}
}

// TestOversizeEntryOutlivesErase: an erase is Flags = 0 and never touches the
// side table; the stale entry is unreachable from an inline program of the
// page, and the next oversize program reuses its capacity.
func TestOversizeEntryOutlivesErase(t *testing.T) {
	var side Oversize
	var p Page
	big := fill(100, 3)
	p.Store(&side, 0, big, nil)
	p.Flags = 0
	small := fill(4, 9)
	p.Store(&side, 0, small, nil)
	if got, _ := p.Load(side, 0); !bytes.Equal(got, small) {
		t.Errorf("inline program over a stale oversize entry reads back %x, want %x", got, small)
	}
	p.Flags = 0
	shorter := fill(60, 5)
	if allocs := testing.AllocsPerRun(10, func() { p.Store(&side, 0, shorter, nil) }); allocs != 0 {
		t.Errorf("oversize re-program of the page allocates %.0f times, want 0", allocs)
	}
	if got, _ := p.Load(side, 0); !bytes.Equal(got, shorter) {
		t.Errorf("oversize re-program reads back %d bytes, want the %d just stored", len(got), len(shorter))
	}
}
