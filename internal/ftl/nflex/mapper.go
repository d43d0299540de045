package nflex

import (
	"flexftl/internal/core"
	"flexftl/internal/nand"
)

// flatBlock is the mapper's flat block index for a chip-local block.
func (f *FTL) flatBlock(chip, blk int) int {
	return f.m.FlatBlock(nand.BlockAddr{Chip: chip, Block: blk})
}

// spareBlockNo encodes the inverse mapping for parity pages.
func spareBlockNo(blk, level int) []byte {
	buf := make([]byte, 16)
	putU64(buf[0:8], uint64(blk))
	putU64(buf[8:16], uint64(level))
	return buf
}

func blockNoFromSpare(spare []byte) (blk, level int, ok bool) {
	if len(spare) < 16 {
		return -1, -1, false
	}
	return int(getU64(spare[0:8])), int(getU64(spare[8:16])), true
}

// pageFor builds a page address.
func pageFor(chip, blk, wl, level int) nand.PageAddr {
	return nand.PageAddr{
		BlockAddr: nand.BlockAddr{Chip: chip, Block: blk},
		Page:      core.Page{WL: wl, Type: core.PageType(level)},
	}
}
