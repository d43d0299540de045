package nflex

import (
	"flexftl/internal/core"
	"flexftl/internal/nand"
)

// flatBlock is the mapper's flat block index for a chip-local block.
func (f *FTL) flatBlock(chip, blk int) int {
	return f.m.FlatBlock(nand.BlockAddr{Chip: chip, Block: blk})
}

// ref returns the parity reference of one phase of a block. Every phase but
// the last leaves a parity page, so a block has levels-1 of them.
func (f *FTL) ref(chip, blk, level int) *parityRef {
	return &f.refs[f.flatBlock(chip, blk)*(f.dev.Geometry().BitsPerCell()-1)+level]
}

// spareBlockNo encodes the inverse mapping for parity pages into dst: block
// in the low four bytes, level in the high four. With the 16-byte parity
// payload that is exactly the device's inline page slot.
func spareBlockNo(dst *[8]byte, blk, level int) []byte {
	putU64(dst[:], uint64(uint32(blk))|uint64(level)<<32)
	return dst[:]
}

func blockNoFromSpare(spare []byte) (blk, level int, ok bool) {
	if len(spare) < 8 {
		return -1, -1, false
	}
	v := getU64(spare[:8])
	return int(uint32(v)), int(v >> 32), true
}

// pageFor builds a page address.
func pageFor(chip, blk, wl, level int) nand.PageAddr {
	return nand.PageAddr{
		BlockAddr: nand.BlockAddr{Chip: chip, Block: blk},
		Page:      core.Page{WL: wl, Type: core.PageType(level)},
	}
}
