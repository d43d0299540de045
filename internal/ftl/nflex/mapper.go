package nflex

import (
	"encoding/binary"

	"flexftl/internal/core"
	"flexftl/internal/ftl"
	"flexftl/internal/nand"
)

// ref returns the parity reference of one phase of a block. Every phase but
// the last leaves a parity page, so a block has levels-1 of them.
func (f *FTL) ref(chip, blk, level int) *parityRef {
	flat := f.Base.Map.FlatBlock(nand.BlockAddr{Chip: chip, Block: blk})
	return &f.refs[flat*(f.Base.Dev.Geometry().BitsPerCell()-1)+level]
}

// spareBlockNo encodes the inverse mapping for parity pages into dst: block
// in the low 30 bits, level in the top two. A level is below nand.MaxLevels
// (4) and a chip has fewer than 2^30 blocks (nand.MaxPages), so both fit the
// ftl.SpareSize bytes that, with the parity payload, fill the device's
// inline page slot.
func spareBlockNo(dst *[ftl.SpareSize]byte, blk, level int) []byte {
	binary.LittleEndian.PutUint32(dst[:], uint32(blk)|uint32(level)<<30)
	return dst[:]
}

// blockMask selects the block number of a parity page's spare.
const blockMask = 1<<30 - 1

func blockNoFromSpare(spare []byte) (blk, level int, ok bool) {
	if len(spare) < ftl.SpareSize {
		return -1, -1, false
	}
	v := binary.LittleEndian.Uint32(spare)
	return int(v & blockMask), int(v >> 30), true
}

// pageFor builds a page address.
func pageFor(chip, blk, wl, level int) nand.PageAddr {
	return nand.PageAddr{
		BlockAddr: nand.BlockAddr{Chip: chip, Block: blk},
		Page:      core.Page{WL: wl, Type: core.PageType(level)},
	}
}
