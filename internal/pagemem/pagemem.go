// Package pagemem is the stored state of one physical page, as the device
// model (internal/nand) keeps it: a flat, pointer-free record a device lays
// out in one array, indexed chip-major by (chip, block, page)
// — FEMU's ppa2pgidx idiom. Flags and payload sit together, so programming a
// page allocates nothing, an erase clears it with one store, and a read
// touches one record instead of a struct and two heap slices. The record has
// no word-sized field: it is 1 + InlineBytes = 10 bytes on every target, the
// figure a device multiplies by its page count. An FTL data page's spare is
// its LPN, which the token's first bytes already hold, so the record stores
// it once; the few spares that say something else (a parity page's block
// number) sit in the chip's Side.
package pagemem

import "encoding/binary"

// TokenBytes and SpareBytes are the payload shape of an FTL data page: a
// 9-byte token (ftl.TokenSize) with a 4-byte spare (ftl.SpareSize). The
// record stores the four shapes the FTLs program in place — that one with
// the token's first SpareBytes as its spare (a data page), that one with
// any other spare (a parity page naming its block), a token with no spare
// (FPS parity) and an empty pad — and no length: a flag names the shape.
// Any other shape goes to the chip's Side.
const (
	TokenBytes = 9
	SpareBytes = 4
)

// InlineBytes is the payload a Page stores in place: one token. A data
// page's spare repeats the token's first SpareBytes and is not stored again.
const InlineBytes = TokenBytes

// Flags is a page's state, packed so that storing 0 erases the page.
type Flags uint8

const (
	// Programmed: the page holds data. The other flags are only ever set on
	// a programmed page, so an erased block's pages are all zero.
	Programmed Flags = 1 << iota
	// Corrupted: the data was destroyed (a power cut during a destructive
	// program, or injected by a test).
	Corrupted
	// Lost pins the page ECC-uncorrectable after a read of it failed the
	// retry ladder.
	Lost
	// oversize: the payload is in the chip's Side, not in buf.
	oversize
	// noSpare: buf holds a TokenBytes payload and the page has no spare.
	noSpare
	// blank: the page was programmed with no payload and no spare.
	blank
	// wide: buf holds a TokenBytes payload and its SpareBytes spare, which
	// is not the token's first bytes, is in the chip's wide list.
	wide
	// shape is the flags that name where the payload is; none of them set
	// is a TokenBytes payload in buf whose spare is its first SpareBytes.
	shape = oversize | noSpare | blank | wide
)

// Page is one physical page. The zero value is an erased page. The retention
// clock is not here: only a device with a BER model reads it, so such a
// device keeps it in an array of its own.
type Page struct {
	// Flags is read and set by the device; Store overwrites it.
	Flags Flags
	buf   [InlineBytes]byte
}

// Has reports whether any of the flags in f is set.
func (p *Page) Has(f Flags) bool { return p.Flags&f != 0 }

// Intact reports whether the page holds data no fault has marked: the pages
// a reliability model rolls an ECC outcome for.
func (p *Page) Intact() bool { return p.Flags&(Programmed|Corrupted|Lost) == Programmed }

// payload is one oversize entry.
type payload struct{ data, spare []byte }

// Side is what one chip's pages keep outside their records, keyed by the
// page's index within the chip. It is per chip, not per device, because the
// epoch shards of one run program disjoint chips concurrently.
//
// The wide list holds the spare of every wide page (a token with a spare
// that is not the token's first bytes: the FTLs' parity pages, whose spare
// names the block they protect) as key<<32 | spare. A device carves it with
// room for the wide pages a chip holds at once; past that room it grows, and
// stays correct. Erase drops a block's entries.
//
// The oversize table holds the payloads of every shape the record does not
// store. The FTLs never program one, so the table stays nil outside tests
// and benchmarks. An entry outlives the erase of its page — without the
// page's flag it is unreachable, and the next oversize program of the page
// reuses its capacity — which bounds the table at one payload per page.
type Side struct {
	wide     []uint64
	oversize map[int]*payload
}

// NewSide returns a chip's Side whose wide list is carved from room: the
// chip holds up to len(room) wide pages at once without allocating.
func NewSide(room []uint64) Side { return Side{wide: room[:0:len(room)]} }

// WideSpares returns how many wide spares the side holds and how many its
// list holds without allocating again.
func (s *Side) WideSpares() (n, room int) { return len(s.wide), cap(s.wide) }

// OversizeEntries returns how many payloads the oversize table holds.
func (s *Side) OversizeEntries() int { return len(s.oversize) }

// wideSpare returns the wide spare of the page keyed key. The newest entry
// wins, so a page whose erase never dropped its entry reads its last spare.
func (s *Side) wideSpare(key int) (spare [SpareBytes]byte, ok bool) {
	k := uint64(key) << 32
	for i := len(s.wide) - 1; i >= 0; i-- {
		if e := s.wide[i]; e&^0xffffffff == k {
			binary.LittleEndian.PutUint32(spare[:], uint32(e))
			return spare, true
		}
	}
	return spare, false
}

// Erase erases pages, the run of the chip's pages keyed from key on: one
// store per page, and one pass over the wide list if any of them is wide.
func (s *Side) Erase(pages []Page, key int) {
	var seen Flags
	for i := range pages {
		seen |= pages[i].Flags
		pages[i].Flags = 0
	}
	if seen&wide == 0 {
		return
	}
	lo, hi := uint64(key), uint64(key+len(pages))
	kept := s.wide[:0]
	for _, e := range s.wide {
		if k := e >> 32; k < lo || k >= hi {
			kept = append(kept, e)
		}
	}
	s.wide = kept
}

// Store programs the page with copies of data and spare, leaving it
// Programmed with Corrupted and Lost clear. key is the page's index within
// the chip that owns side.
func (p *Page) Store(side *Side, key int, data, spare []byte) {
	switch {
	case len(data) == TokenBytes && len(spare) == SpareBytes:
		// The FTLs' data page: a fixed-width move (an 8-byte and a 1-byte
		// move) and a 4-byte compare, no memmove call.
		*(*[TokenBytes]byte)(p.buf[:]) = [TokenBytes]byte(data)
		if [SpareBytes]byte(spare) == [SpareBytes]byte(data[:SpareBytes]) {
			p.Flags = Programmed
			return
		}
		side.wide = append(side.wide, uint64(key)<<32|uint64(binary.LittleEndian.Uint32(spare)))
		p.Flags = Programmed | wide
	case len(data) == TokenBytes && len(spare) == 0:
		*(*[TokenBytes]byte)(p.buf[:]) = [TokenBytes]byte(data)
		p.Flags = Programmed | noSpare
	case len(data) == 0 && len(spare) == 0:
		p.Flags = Programmed | blank
	default:
		p.storeOversize(side, key, data, spare)
	}
}

func (p *Page) storeOversize(side *Side, key int, data, spare []byte) {
	if side.oversize == nil {
		side.oversize = make(map[int]*payload)
	}
	e := side.oversize[key]
	if e == nil {
		e = new(payload)
		side.oversize[key] = e
	}
	e.data = append(e.data[:0], data...)
	e.spare = append(e.spare[:0], spare...)
	p.Flags = Programmed | oversize
}

// Load copies the stored data and spare area of a programmed page into data
// and spare, reusing their capacity, and returns them. An FTL data page read
// into buffers that already hold one is fixed-width moves; the first
// read into empty buffers, and every other shape, appends. A wide page whose
// spare its side no longer holds reads back with no spare.
func (p *Page) Load(side *Side, key int, data, spare []byte) ([]byte, []byte) {
	switch p.Flags & shape {
	case 0:
		if cap(data) >= TokenBytes && cap(spare) >= SpareBytes {
			data, spare = data[:TokenBytes], spare[:SpareBytes]
			*(*[TokenBytes]byte)(data) = p.buf
			*(*[SpareBytes]byte)(spare) = [SpareBytes]byte(p.buf[:SpareBytes])
			return data, spare
		}
		return append(data[:0], p.buf[:]...), append(spare[:0], p.buf[:SpareBytes]...)
	case wide:
		data = append(data[:0], p.buf[:]...)
		if sp, ok := side.wideSpare(key); ok {
			return data, append(spare[:0], sp[:]...)
		}
		return data, spare[:0]
	case noSpare:
		return append(data[:0], p.buf[:]...), spare[:0]
	case blank:
		return data[:0], spare[:0]
	}
	e := side.oversize[key]
	return append(data[:0], e.data...), append(spare[:0], e.spare...)
}

// PeekSpare returns the first SpareBytes of a programmed page's spare area,
// whatever its Corrupted and Lost flags, copying nothing else. It reports
// false for an erased page, for a spare shorter than SpareBytes and for a
// wide page whose spare its side no longer holds.
func (p *Page) PeekSpare(side *Side, key int) (spare [SpareBytes]byte, ok bool) {
	switch {
	case p.Flags&Programmed == 0:
		return spare, false
	case p.Flags&shape == 0:
		return [SpareBytes]byte(p.buf[:SpareBytes]), true
	case p.Flags&wide != 0:
		return side.wideSpare(key)
	case p.Flags&oversize != 0:
		if e := side.oversize[key]; len(e.spare) >= SpareBytes {
			return [SpareBytes]byte(e.spare), true
		}
	}
	return spare, false
}
