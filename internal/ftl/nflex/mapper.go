package nflex

import (
	"encoding/binary"

	"flexftl/internal/core"
	"flexftl/internal/nand"
)

// ref returns the parity reference of one phase of a block. Every phase but
// the last leaves a parity page, so a block has levels-1 of them.
func (f *FTL) ref(chip, blk, level int) *parityRef {
	flat := f.Base.Map.FlatBlock(nand.BlockAddr{Chip: chip, Block: blk})
	return &f.refs[flat*(f.Base.Dev.Geometry().BitsPerCell()-1)+level]
}

// spareBlockNo encodes the inverse mapping for parity pages into dst: block
// in the low four bytes, level in the high four. With the 16-byte parity
// payload that is exactly the device's inline page slot.
func spareBlockNo(dst *[8]byte, blk, level int) []byte {
	binary.LittleEndian.PutUint64(dst[:], uint64(uint32(blk))|uint64(level)<<32)
	return dst[:]
}

func blockNoFromSpare(spare []byte) (blk, level int, ok bool) {
	if len(spare) < 8 {
		return -1, -1, false
	}
	v := binary.LittleEndian.Uint64(spare)
	return int(uint32(v)), int(v >> 32), true
}

// pageFor builds a page address.
func pageFor(chip, blk, wl, level int) nand.PageAddr {
	return nand.PageAddr{
		BlockAddr: nand.BlockAddr{Chip: chip, Block: blk},
		Page:      core.Page{WL: wl, Type: core.PageType(level)},
	}
}
