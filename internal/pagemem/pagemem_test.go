package pagemem

import (
	"bytes"
	"fmt"
	"testing"
	"unsafe"

	"flexftl/internal/alloctest"
)

func fill(n int, seed byte) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = seed + byte(i)
	}
	return b
}

// TestPageIsFlat: the record is what a device multiplies by its page count —
// a flags byte and the inline slot, 10 bytes on every target: no length
// bytes, no word-sized field to pad it, no pointers for the collector to
// trace, and no second copy of a data page's LPN.
func TestPageIsFlat(t *testing.T) {
	if got, want := unsafe.Sizeof(Page{}), uintptr(1+InlineBytes); got != want {
		t.Errorf("Page is %d bytes, want %d", got, want)
	}
	if InlineBytes != TokenBytes {
		t.Errorf("InlineBytes = %d, want TokenBytes %d", InlineBytes, TokenBytes)
	}
}

// where names the storage a payload shape goes to.
type where int

const (
	inRecord   where = iota // the record alone
	inWide                  // the record and the wide list
	inOversize              // the oversize table
)

// placement is where a payload goes: the four shapes the FTLs program stay
// in the record, a token with a foreign spare keeping that spare in the wide
// list, and every other shape goes to the oversize table.
func placement(data, spare int, prefix bool) where {
	switch {
	case data == TokenBytes && spare == SpareBytes && !prefix:
		return inWide
	case data == TokenBytes && (spare == SpareBytes || spare == 0), data == 0 && spare == 0:
		return inRecord
	}
	return inOversize
}

// TestStoreLoad: the four shapes the FTLs program — a data page (9+4, the
// spare the token's first 4 bytes), a parity page naming its block (9+4,
// any other spare), an FPS parity page (9+0) and a pad (0+0) — are stored
// inline, the foreign spare in the wide list, and every other shape goes to
// the oversize table; Store leaves only Programmed set. Every split of up to
// a token and a spare and a few larger shapes round-trip through Load into
// empty buffers, into buffers that already hold an FTL page, and into longer
// ones, and PeekSpare returns the first SpareBytes of every spare that has
// them, also on a corrupted page.
func TestStoreLoad(t *testing.T) {
	type split struct {
		data, spare int
		prefix      bool // the spare is the data's first bytes
	}
	var splits []split
	for d := 0; d <= TokenBytes+SpareBytes; d++ {
		for sp := 0; d+sp <= TokenBytes+SpareBytes; sp++ {
			splits = append(splits, split{d, sp, false})
		}
	}
	splits = append(splits, split{TokenBytes, SpareBytes, true}, split{TokenBytes + SpareBytes + 1, 0, false},
		split{0, TokenBytes + SpareBytes + 1, false}, split{TokenBytes + SpareBytes, 1, false}, split{4096, 64, false})
	for _, c := range splits {
		side := NewSide(make([]uint64, 4))
		p := Page{Flags: Corrupted | Lost}
		data, spare := fill(c.data, 1), fill(c.spare, 200)
		if c.prefix {
			spare = append([]byte(nil), data[:c.spare]...)
		}
		name := fmt.Sprintf("%d+%dB (prefix spare %v)", c.data, c.spare, c.prefix)
		p.Store(&side, 7, data, spare)
		if p.Flags&^shape != Programmed {
			t.Errorf("%s: flags after Store = %b, want Programmed alone", name, p.Flags)
		}
		want := placement(c.data, c.spare, c.prefix)
		if got := len(side.oversize) == 1; got != (want == inOversize) || (p.Flags&oversize != 0) != got {
			t.Errorf("%s: oversize table has %d entries, oversize flag %v, want %v", name, len(side.oversize), p.Flags&oversize != 0, want == inOversize)
		}
		if got, _ := side.WideSpares(); (got == 1) != (want == inWide) || (p.Flags&wide != 0) != (want == inWide) {
			t.Errorf("%s: wide list has %d entries, wide flag %v, want %v", name, got, p.Flags&wide != 0, want == inWide)
		}
		for _, dst := range []struct {
			name        string
			data, spare []byte
		}{
			{"empty", nil, nil},
			{"FTL-sized", make([]byte, 0, TokenBytes), make([]byte, 0, SpareBytes)},
			{"longer", fill(40, 77), fill(9, 66)},
		} {
			gotData, gotSpare := p.Load(&side, 7, dst.data, dst.spare)
			if !bytes.Equal(gotData, data) || !bytes.Equal(gotSpare, spare) {
				t.Errorf("%s into %s buffers: Load = %x/%x, want %x/%x", name, dst.name, gotData, gotSpare, data, spare)
			}
		}
		p.Flags |= Corrupted | Lost
		got, ok := p.PeekSpare(&side, 7)
		if want := c.spare >= SpareBytes; ok != want || ok && !bytes.Equal(got[:], spare[:SpareBytes]) {
			t.Errorf("%s: PeekSpare = %x,%v, want %x,%v", name, got, ok, spare[:min(c.spare, SpareBytes)], want)
		}
		p.Flags = 0
		if _, ok := p.PeekSpare(&side, 7); ok {
			t.Errorf("%s: PeekSpare of the erased page reports a spare", name)
		}
	}

	// An FTL page's bytes stay in the record after an erase; an oversize
	// program over it must still read back from the side table.
	var side Side
	var p Page
	p.Store(&side, 3, fill(TokenBytes, 5), fill(SpareBytes, 6))
	p.Flags = 0
	big := fill(100, 3)
	p.Store(&side, 3, big, nil)
	if gotData, gotSpare := p.Load(&side, 3, make([]byte, 0, 128), make([]byte, 0, 8)); !bytes.Equal(gotData, big) || len(gotSpare) != 0 {
		t.Errorf("oversize program over an erased FTL page reads back %d+%d bytes, want %d+0", len(gotData), len(gotSpare), len(big))
	}
}

// TestWideList: wide pages up to the carved room cost no allocation; an
// erase drops exactly its run's entries, and only sweeps the list when the
// run holds a wide page; a page whose entry was never dropped reads its
// newest spare; and past the room the list grows and stays right.
func TestWideList(t *testing.T) {
	const room, perBlock = 6, 4
	side := NewSide(make([]uint64, room))
	pages := make([]Page, 3*perBlock)
	spares := make([][]byte, len(pages))
	for k := range spares {
		spares[k] = []byte{byte(k), 0xa5, byte(k), 0x5a}
	}
	spareOf := func(key int) []byte { return spares[key] }
	token := fill(TokenBytes, 1)
	wideKeys := []int{0, 1, 4, 5, 6, 9}
	if allocs := testing.AllocsPerRun(1, func() {
		side.Erase(pages, 0)
		for _, k := range wideKeys {
			pages[k].Store(&side, k, token, spareOf(k))
		}
	}); allocs != 0 {
		t.Errorf("%d wide programs within a room of %d allocate %.0f times, want 0", len(wideKeys), room, allocs)
	}
	pages[2].Store(&side, 2, token, token[:SpareBytes]) // a data page
	check := func(when string, wantWide map[int]bool) {
		t.Helper()
		for k := range pages {
			got, ok := pages[k].PeekSpare(&side, k)
			switch {
			case wantWide[k] && (!ok || !bytes.Equal(got[:], spareOf(k))):
				t.Errorf("%s: page %d PeekSpare = %x,%v, want %x", when, k, got, ok, spareOf(k))
			case !wantWide[k] && pages[k].Flags&wide != 0:
				t.Errorf("%s: page %d still wide", when, k)
			}
		}
		if n, _ := side.WideSpares(); n != len(wantWide) {
			t.Errorf("%s: wide list holds %d entries, want %d", when, n, len(wantWide))
		}
	}
	check("programmed", map[int]bool{0: true, 1: true, 4: true, 5: true, 6: true, 9: true})

	side.Erase(pages[perBlock:2*perBlock], perBlock)
	check("block 1 erased", map[int]bool{0: true, 1: true, 9: true})

	// A run with no wide page leaves the list untouched, even an entry
	// whose page the list should not know of.
	side.wide = append(side.wide, 3<<32|7)
	side.Erase(pages[:0], 0)
	side.Erase(pages[2:3], 2)
	if n, _ := side.WideSpares(); n != 4 {
		t.Errorf("erase of a run without a wide page changed the list to %d entries, want 4", n)
	}
	side.wide = side.wide[:3]

	// A stale entry: the newest spare wins.
	pages[0].Flags = 0
	pages[0].Store(&side, 0, token, []byte{9, 9, 9, 9})
	if got, ok := pages[0].PeekSpare(&side, 0); !ok || got != [SpareBytes]byte{9, 9, 9, 9} {
		t.Errorf("re-programmed page without a drop: PeekSpare = %x,%v, want 09090909", got, ok)
	}

	// Past the room: every page of blocks 1 and 2 goes wide.
	side.Erase(pages, 0)
	if n, _ := side.WideSpares(); n != 0 {
		t.Errorf("erase of every block left %d entries", n)
	}
	want := map[int]bool{}
	for k := perBlock; k < len(pages); k++ {
		pages[k].Store(&side, k, token, spareOf(k))
		want[k] = true
	}
	if _, r := side.WideSpares(); r <= room {
		t.Errorf("list of %d entries still has room %d", len(want), r)
	}
	check("past the room", want)
	side.Erase(pages[2*perBlock:], 2*perBlock)
	for k := 2 * perBlock; k < len(pages); k++ {
		delete(want, k)
	}
	check("past the room, block 2 erased", want)

	// A spare the list lost reads as none, not as another page's.
	pages[0].Store(&side, 0, token, spareOf(0))
	side.wide = side.wide[:0]
	if _, ok := pages[0].PeekSpare(&side, 0); ok {
		t.Error("PeekSpare of a wide page with no entry reports a spare")
	}
	if d, sp := pages[0].Load(&side, 0, nil, nil); !bytes.Equal(d, token) || len(sp) != 0 {
		t.Errorf("Load of a wide page with no entry = %x/%x, want the token and no spare", d, sp)
	}
}

// TestOversizeEntryOutlivesErase: an erase is Flags = 0 and never touches the
// side table; the stale entry is unreachable from an inline program of the
// page (a parity page's token with no spare), and the next oversize program
// reuses its capacity.
func TestOversizeEntryOutlivesErase(t *testing.T) {
	var side Side
	var p Page
	big := fill(100, 3)
	p.Store(&side, 0, big, nil)
	p.Flags = 0
	small := fill(TokenBytes, 9)
	p.Store(&side, 0, small, nil)
	if got, _ := p.Load(&side, 0, nil, nil); !bytes.Equal(got, small) {
		t.Errorf("inline program over a stale oversize entry reads back %x, want %x", got, small)
	}
	p.Flags = 0
	shorter := fill(60, 5)
	if allocs := alloctest.Count(10, func() { p.Store(&side, 0, shorter, nil) }); allocs != 0 {
		t.Errorf("10 oversize re-programs of the page allocate %d times, want 0", allocs)
	}
	if got, _ := p.Load(&side, 0, nil, nil); !bytes.Equal(got, shorter) {
		t.Errorf("oversize re-program reads back %d bytes, want the %d just stored", len(got), len(shorter))
	}
}
