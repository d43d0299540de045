// Package parity implements the XOR parity-page accumulator used by the
// paired-page backup schemes: flexFTL's per-block parity page (one parity
// page protecting all LSB pages of a block, Section 3.3) and parityFTL's
// per-2-pages pre-backup parity. XOR parity can reconstruct exactly one lost
// page from the surviving members plus the parity page.
package parity

import (
	"crypto/subtle"
	"encoding/binary"
	"errors"
	"fmt"
)

// ErrWidthMismatch is returned when a page of a different width is added to
// a non-empty accumulator.
var ErrWidthMismatch = errors.New("parity: page width mismatch")

// Buffer accumulates the XOR of a set of equal-width pages. The zero value
// (or New) is an empty accumulator. XOR's self-inverse property means Add is
// also how a member is removed from the set.
type Buffer struct {
	acc   []byte
	width int
	count int
}

// New returns an empty accumulator for pages of the given width.
func New(width int) *Buffer {
	if width <= 0 {
		panic("parity: width must be positive")
	}
	return &Buffer{acc: make([]byte, width), width: width}
}

// NewSet returns n empty accumulators for pages of the given width, carved
// from one allocation.
func NewSet(n, width int) []Buffer {
	acc, set := make([]byte, n*width), make([]Buffer, n)
	for i := range set {
		set[i] = Buffer{acc: acc[i*width : (i+1)*width : (i+1)*width], width: width}
	}
	return set
}

// Width returns the page width.
func (b *Buffer) Width() int { return b.width }

// Count returns how many pages have been accumulated (net of removals: each
// Add increments it, each Remove decrements it).
func (b *Buffer) Count() int { return b.count }

// Add XORs a page into the accumulator. Pages shorter than the width are
// implicitly zero-padded, matching how a NAND page is programmed with a
// short payload.
func (b *Buffer) Add(page []byte) error {
	if len(page) > b.width {
		return fmt.Errorf("%w: page %dB, accumulator %dB", ErrWidthMismatch, len(page), b.width)
	}
	xorPage(b.acc, page)
	b.count++
	return nil
}

// Remove XORs a previously added page back out of the accumulator.
func (b *Buffer) Remove(page []byte) error {
	if len(page) > b.width {
		return fmt.Errorf("%w: page %dB, accumulator %dB", ErrWidthMismatch, len(page), b.width)
	}
	if b.count == 0 {
		return errors.New("parity: Remove on empty accumulator")
	}
	xorPage(b.acc, page)
	b.count--
	return nil
}

// xorPage XORs page into the head of acc, which is at least as wide. The
// FTLs' pages are 9-byte tokens, XORed as one 8-byte word and one byte;
// every other width goes through subtle.XORBytes.
func xorPage(acc, page []byte) {
	if len(page) == 9 {
		le := binary.LittleEndian
		le.PutUint64(acc, le.Uint64(acc)^le.Uint64(page))
		acc[8] ^= page[8]
		return
	}
	subtle.XORBytes(acc, acc, page)
}

// Snapshot returns a copy of the current parity page — the bytes flexFTL
// programs to the backup block once the last LSB page of the active fast
// block is written.
func (b *Buffer) Snapshot() []byte {
	return append([]byte(nil), b.acc...)
}

// Bytes returns the current parity page itself, valid until the next Add,
// Remove or Reset — the allocation-free way to program it (Device.Program
// copies the payload).
func (b *Buffer) Bytes() []byte { return b.acc }

// Reset clears the accumulator.
func (b *Buffer) Reset() {
	for i := range b.acc {
		b.acc[i] = 0
	}
	b.count = 0
}

// Recover reconstructs the single missing page of a protected set: parity is
// the saved parity page and survivors are every member except the lost one.
// It is pure XOR algebra and does not need a Buffer.
func Recover(parityPage []byte, survivors [][]byte) ([]byte, error) {
	out := append([]byte(nil), parityPage...)
	for _, s := range survivors {
		if len(s) > len(out) {
			return nil, fmt.Errorf("%w: survivor %dB, parity %dB", ErrWidthMismatch, len(s), len(out))
		}
		subtle.XORBytes(out, out, s)
	}
	return out, nil
}
