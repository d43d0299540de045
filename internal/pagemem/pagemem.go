// Package pagemem is the stored state of one physical page, as the device
// model (internal/nand) keeps it: a flat, pointer-free record a device lays
// out in one array, indexed chip-major by (chip, block, page)
// — FEMU's ppa2pgidx idiom. Flags and payload sit together, so programming a
// page allocates nothing, an erase clears it with one store, and a read
// touches one record instead of a struct and two heap slices. The record has
// no word-sized field: it is 1 + InlineBytes = 14 bytes on every target, the
// figure a device multiplies by its page count.
package pagemem

// TokenBytes and SpareBytes are the payload shape of an FTL data page: a
// 9-byte token (ftl.TokenSize) with a 4-byte spare (ftl.SpareSize). The
// record stores the three shapes the FTLs program in place — that one, a
// token with no spare (FPS parity) and an empty pad — and no length: a flag
// names the shape. Any other shape goes to the chip's Oversize table.
const (
	TokenBytes = 9
	SpareBytes = 4
)

// InlineBytes is the payload a Page stores in place, data and spare area
// together: one FTL page exactly.
const InlineBytes = TokenBytes + SpareBytes

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
	// oversize: the payload is in the chip's Oversize table, not in buf.
	oversize
	// noSpare: buf holds a TokenBytes payload and the page has no spare.
	noSpare
	// blank: the page was programmed with no payload and no spare.
	blank
	// shape is the flags that name where the payload is; none of them set
	// is a TokenBytes + SpareBytes page in buf.
	shape = oversize | noSpare | blank
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

// payload is one Oversize entry.
type payload struct{ data, spare []byte }

// Oversize holds the payloads of one chip whose shape the inline slot does
// not store, keyed by the page's index within the chip. It is per chip, not
// per device, because the epoch shards of one run program disjoint chips
// concurrently. The FTLs never program such a payload, so the table stays
// nil outside tests and benchmarks. An entry outlives the erase of its page
// — without the page's flag it is unreachable, and the next oversize program
// of the page reuses its capacity — which bounds the table at one payload
// per page.
type Oversize map[int]*payload

// Store programs the page with copies of data and spare, leaving it
// Programmed with Corrupted and Lost clear. key is the page's index within
// the chip that owns side.
func (p *Page) Store(side *Oversize, key int, data, spare []byte) {
	switch {
	case len(data) == TokenBytes && len(spare) == SpareBytes:
		// The FTLs' data page: fixed-width moves (the token is an 8-byte and
		// a 1-byte move), no memmove call.
		*(*[TokenBytes]byte)(p.buf[:TokenBytes]) = [TokenBytes]byte(data)
		*(*[SpareBytes]byte)(p.buf[TokenBytes:]) = [SpareBytes]byte(spare)
		p.Flags = Programmed
	case len(data) == TokenBytes && len(spare) == 0:
		*(*[TokenBytes]byte)(p.buf[:TokenBytes]) = [TokenBytes]byte(data)
		p.Flags = Programmed | noSpare
	case len(data) == 0 && len(spare) == 0:
		p.Flags = Programmed | blank
	default:
		p.storeOversize(side, key, data, spare)
	}
}

func (p *Page) storeOversize(side *Oversize, key int, data, spare []byte) {
	if *side == nil {
		*side = make(Oversize)
	}
	e := (*side)[key]
	if e == nil {
		e = new(payload)
		(*side)[key] = e
	}
	e.data = append(e.data[:0], data...)
	e.spare = append(e.spare[:0], spare...)
	p.Flags = Programmed | oversize
}

// Load copies the stored data and spare area of a programmed page into data
// and spare, reusing their capacity, and returns them. An FTL data page read
// into buffers that already hold one is fixed-width moves; the first
// read into empty buffers, and every other shape, appends.
func (p *Page) Load(side Oversize, key int, data, spare []byte) ([]byte, []byte) {
	switch p.Flags & shape {
	case 0:
		if cap(data) >= TokenBytes && cap(spare) >= SpareBytes {
			data, spare = data[:TokenBytes], spare[:SpareBytes]
			*(*[TokenBytes]byte)(data) = [TokenBytes]byte(p.buf[:TokenBytes])
			*(*[SpareBytes]byte)(spare) = [SpareBytes]byte(p.buf[TokenBytes:])
			return data, spare
		}
		return append(data[:0], p.buf[:TokenBytes]...), append(spare[:0], p.buf[TokenBytes:]...)
	case noSpare:
		return append(data[:0], p.buf[:TokenBytes]...), spare[:0]
	case blank:
		return data[:0], spare[:0]
	}
	e := side[key]
	return append(data[:0], e.data...), append(spare[:0], e.spare...)
}

// PeekSpare returns the first SpareBytes of a programmed page's spare area,
// whatever its Corrupted and Lost flags, copying nothing else. It reports
// false for an erased page and for a spare shorter than SpareBytes.
func (p *Page) PeekSpare(side Oversize, key int) (spare [SpareBytes]byte, ok bool) {
	switch {
	case p.Flags&Programmed == 0:
		return spare, false
	case p.Flags&shape == 0:
		return [SpareBytes]byte(p.buf[TokenBytes:]), true
	case p.Flags&oversize != 0:
		if e := side[key]; len(e.spare) >= SpareBytes {
			return [SpareBytes]byte(e.spare), true
		}
	}
	return spare, false
}
