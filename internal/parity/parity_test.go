package parity

import (
	"bytes"
	"errors"
	"testing"
	"testing/quick"

	"flexftl/internal/alloctest"
	"flexftl/internal/rng"
)

func TestEmptyBuffer(t *testing.T) {
	b := New(8)
	if b.Width() != 8 || b.Count() != 0 {
		t.Fatal("fresh buffer state wrong")
	}
	snap := b.Snapshot()
	if len(snap) != 8 {
		t.Fatalf("snapshot width %d", len(snap))
	}
	for _, v := range snap {
		if v != 0 {
			t.Fatal("fresh buffer not zero")
		}
	}
}

func TestNewPanicsOnBadWidth(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("New(0) did not panic")
		}
	}()
	New(0)
}

func TestAddRemoveRoundTrip(t *testing.T) {
	b := New(4)
	p1 := []byte{1, 2, 3, 4}
	p2 := []byte{0xff, 0x00, 0xaa, 0x55}
	if err := b.Add(p1); err != nil {
		t.Fatal(err)
	}
	if err := b.Add(p2); err != nil {
		t.Fatal(err)
	}
	if b.Count() != 2 {
		t.Errorf("count = %d", b.Count())
	}
	want := []byte{1 ^ 0xff, 2, 3 ^ 0xaa, 4 ^ 0x55}
	if !bytes.Equal(b.Snapshot(), want) {
		t.Errorf("snapshot = %v, want %v", b.Snapshot(), want)
	}
	if err := b.Remove(p2); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(b.Snapshot(), p1) || b.Count() != 1 {
		t.Error("Remove did not undo Add")
	}
}

func TestShortPageZeroPadded(t *testing.T) {
	b := New(4)
	if err := b.Add([]byte{0xff}); err != nil {
		t.Fatal(err)
	}
	want := []byte{0xff, 0, 0, 0}
	if !bytes.Equal(b.Snapshot(), want) {
		t.Errorf("snapshot = %v, want %v", b.Snapshot(), want)
	}
}

func TestWidthMismatch(t *testing.T) {
	b := New(2)
	if err := b.Add([]byte{1, 2, 3}); !errors.Is(err, ErrWidthMismatch) {
		t.Errorf("Add err = %v", err)
	}
	if err := b.Remove([]byte{1, 2, 3}); !errors.Is(err, ErrWidthMismatch) {
		t.Errorf("Remove err = %v", err)
	}
}

func TestRemoveEmpty(t *testing.T) {
	b := New(2)
	if err := b.Remove([]byte{1}); err == nil {
		t.Error("Remove on empty accumulator succeeded")
	}
}

func TestReset(t *testing.T) {
	b := New(2)
	if err := b.Add([]byte{9, 9}); err != nil {
		t.Fatal(err)
	}
	b.Reset()
	if b.Count() != 0 {
		t.Error("count after Reset")
	}
	for _, v := range b.Snapshot() {
		if v != 0 {
			t.Error("accumulator not cleared")
		}
	}
}

func TestSnapshotIsCopy(t *testing.T) {
	b := New(2)
	if err := b.Add([]byte{7, 7}); err != nil {
		t.Fatal(err)
	}
	s := b.Snapshot()
	s[0] = 0
	if b.Snapshot()[0] != 7 {
		t.Error("Snapshot aliased internal state")
	}
}

// TestRecoverOnePage is the Section 3.3 scenario: N LSB pages protected by
// one parity page; one page lost; Recover reconstructs it.
func TestRecoverOnePage(t *testing.T) {
	src := rng.New(1)
	const width = 64
	const n = 128 // all LSB pages of a 128-word-line block
	pages := make([][]byte, n)
	b := New(width)
	for i := range pages {
		pages[i] = make([]byte, width)
		for j := range pages[i] {
			pages[i][j] = byte(src.Intn(256))
		}
		if err := b.Add(pages[i]); err != nil {
			t.Fatal(err)
		}
	}
	parityPage := b.Snapshot()
	for _, lost := range []int{0, 17, n - 1} {
		survivors := make([][]byte, 0, n-1)
		for i, p := range pages {
			if i != lost {
				survivors = append(survivors, p)
			}
		}
		got, err := Recover(parityPage, survivors)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, pages[lost]) {
			t.Errorf("recovered page %d mismatch", lost)
		}
	}
}

func TestRecoverWidthMismatch(t *testing.T) {
	if _, err := Recover([]byte{1}, [][]byte{{1, 2}}); !errors.Is(err, ErrWidthMismatch) {
		t.Errorf("err = %v", err)
	}
}

// Property: for random page sets, parity of all pages XOR parity of all but
// one equals the remaining page.
func TestRecoverProperty(t *testing.T) {
	f := func(seed uint64, nRaw, widthRaw uint8) bool {
		n := 2 + int(nRaw%30)
		width := 1 + int(widthRaw%60)
		src := rng.New(seed)
		pages := make([][]byte, n)
		b := New(width)
		for i := range pages {
			pages[i] = make([]byte, width)
			for j := range pages[i] {
				pages[i][j] = byte(src.Intn(256))
			}
			if b.Add(pages[i]) != nil {
				return false
			}
		}
		lost := src.Intn(n)
		survivors := make([][]byte, 0, n-1)
		for i, p := range pages {
			if i != lost {
				survivors = append(survivors, p)
			}
		}
		got, err := Recover(b.Snapshot(), survivors)
		return err == nil && bytes.Equal(got, pages[lost])
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property: Add then Remove of the same random page restores the exact
// accumulator state.
func TestAddRemoveInverseProperty(t *testing.T) {
	f := func(seed uint64) bool {
		src := rng.New(seed)
		b := New(9)
		base := make([]byte, 9)
		for j := range base {
			base[j] = byte(src.Intn(256))
		}
		if b.Add(base) != nil {
			return false
		}
		before := b.Snapshot()
		extra := make([]byte, 9)
		for j := range extra {
			extra[j] = byte(src.Intn(256))
		}
		if b.Add(extra) != nil || b.Remove(extra) != nil {
			return false
		}
		return bytes.Equal(before, b.Snapshot())
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// xorInto is the byte loop Add, Remove and Recover used before they called
// crypto/subtle.XORBytes: the oracle the XOR property below checks them
// against.
func xorInto(acc, page []byte) {
	for i, v := range page {
		acc[i] ^= v
	}
}

// TestXORMatchesByteLoop: over random widths 1–40 and pages of every length
// 0–40 — shorter than, equal to and wider than the accumulator — Add,
// Remove and Recover agree with the byte loop on the bytes and on which
// pages they refuse.
func TestXORMatchesByteLoop(t *testing.T) {
	f := func(seed uint64) bool {
		src := rng.New(seed)
		width := 1 + src.Intn(40)
		b, acc := New(width), make([]byte, width)
		var added [][]byte
		var survivors [][]byte
		for op := 0; op < 24; op++ {
			page := make([]byte, src.Intn(41))
			for j := range page {
				page[j] = byte(src.Intn(256))
			}
			fits := len(page) <= width
			if len(added) > 0 && src.Bool(0.3) {
				k := src.Intn(len(added))
				page = added[k]
				added = append(added[:k], added[k+1:]...)
				if err := b.Remove(page); err != nil {
					return false
				}
				xorInto(acc, page)
			} else {
				if err := b.Add(page); (err == nil) != fits {
					return false
				}
				if fits {
					xorInto(acc, page)
					added = append(added, page)
				}
			}
			if !bytes.Equal(b.Snapshot(), acc) {
				return false
			}
			if fits || src.Bool(0.1) {
				survivors = append(survivors, page)
			}
		}
		parityPage := b.Snapshot()
		want := append([]byte(nil), parityPage...)
		wantErr := false
		for _, s := range survivors {
			if len(s) > len(want) {
				wantErr = true
				break
			}
			xorInto(want, s)
		}
		got, err := Recover(parityPage, survivors)
		if wantErr {
			return errors.Is(err, ErrWidthMismatch)
		}
		return err == nil && bytes.Equal(got, want)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// TestAddTokenAllocatesNothing: accumulating a page the size of an FTL
// token (9 bytes) allocates nothing.
func TestAddTokenAllocatesNothing(t *testing.T) {
	b := New(9)
	page := bytes.Repeat([]byte{0x5a}, 9)
	if allocs := alloctest.Count(100, func() { _ = b.Add(page) }); allocs != 0 {
		t.Errorf("100 Adds of a 9-byte page allocate %d times, want 0", allocs)
	}
}
