package nand

import (
	"fmt"
	"math"
	"math/bits"

	"flexftl/internal/core"
)

// MaxPages bounds the physical pages of a device: every page number is below
// it, so it fits an int32 with one to spare (the mapping tables store a page
// number plus one) and the Layout's multiply-shift division is exact for it.
const MaxPages = math.MaxInt32 - 1

// CapacityError reports a geometry with more physical pages than a device
// can address.
type CapacityError struct {
	Pages float64 // the geometry's physical pages
}

func (e *CapacityError) Error() string {
	return fmt.Sprintf("nand: %.0f physical pages exceed the %d a device addresses", e.Pages, MaxPages)
}

// CheckCapacity returns a *CapacityError when the geometry has MaxPages
// physical pages or more. The page count is a float64 product, so a geometry
// whose count overflows an int is refused, not wrapped; it is exact up to
// 2^53, far past the bound.
func CheckCapacity(g Geometry) error {
	pages := float64(g.Channels) * float64(g.ChipsPerChannel) * float64(g.BlocksPerChip) *
		float64(g.BitsPerCell()) * float64(g.WordLinesPerBlock)
	if pages > MaxPages {
		return &CapacityError{Pages: pages}
	}
	return nil
}

// Layout is the device's one page numbering: a PPN is
// (chip*BlocksPerChip + block)*PagesPerBlock + page index, the formula
// Geometry.PPNOf and AddrOfPPN spell out with divisions. A Layout composes
// it by multiply-add and takes it apart by multiply-shift, so the per-page
// paths — the device's reads and programs, the mapper's valid counts, the
// FTL's placement — turn a page number into a page record and back without
// a division. NewDevice builds one; everything else borrows the device's.
type Layout struct {
	chips, blocksPerChip, pagesPerBlock, wordLines int
	pagesPerChip                                   int
	// pages is the device's page count, so that a PPN is in range iff
	// uint64(ppn) < pages.
	pages uint64
	// byPages and byBlocks divide by pagesPerBlock and blocksPerChip: page →
	// flat block → chip.
	byPages, byBlocks Divider
}

// NewLayout builds the numbering of a valid geometry below MaxPages pages.
func NewLayout(g Geometry) Layout {
	ppb := g.PagesPerBlock()
	return Layout{
		chips:         g.Chips(),
		blocksPerChip: g.BlocksPerChip,
		pagesPerBlock: ppb,
		wordLines:     g.WordLinesPerBlock,
		pagesPerChip:  g.BlocksPerChip * ppb,
		pages:         uint64(g.TotalPages()),
		byPages:       NewDivider(ppb),
		byBlocks:      NewDivider(g.BlocksPerChip),
	}
}

// Pages returns the number of physical pages.
func (l *Layout) Pages() int { return int(l.pages) }

// Blocks returns the number of blocks.
func (l *Layout) Blocks() int { return l.chips * l.blocksPerChip }

// PagesPerBlock returns the pages of one block.
func (l *Layout) PagesPerBlock() int { return l.pagesPerBlock }

// InRange reports whether ppn names a page of the device.
func (l *Layout) InRange(ppn PPN) bool { return uint64(ppn) < l.pages }

// PPN numbers page index idx of a chip's block.
func (l *Layout) PPN(chip, block, idx int) PPN {
	return PPN((chip*l.blocksPerChip+block)*l.pagesPerBlock + idx)
}

// PPNOf numbers a page address (Geometry.PPNOf without the int64 products).
func (l *Layout) PPNOf(a PageAddr) PPN {
	return l.PPN(a.Chip, a.Block, a.Page.Index(l.wordLines))
}

// FlatOf returns the flat index (chip*BlocksPerChip + block) of a block.
func (l *Layout) FlatOf(a BlockAddr) int { return a.Chip*l.blocksPerChip + a.Block }

// FlatBlock returns the flat index (chip*BlocksPerChip + block) of the block
// holding an in-range ppn.
func (l *Layout) FlatBlock(ppn PPN) int { return l.byPages.Div(int(ppn)) }

// BlockOfFlat splits a flat block index into its chip and block.
func (l *Layout) BlockOfFlat(flat int) BlockAddr {
	chip := l.byBlocks.Div(flat)
	return BlockAddr{Chip: chip, Block: flat - chip*l.blocksPerChip}
}

// ChipOf returns the chip of an in-range ppn.
func (l *Layout) ChipOf(ppn PPN) int { return l.byBlocks.Div(l.byPages.Div(int(ppn))) }

// locate takes an in-range ppn apart into its flat block, chip, block and
// page index.
func (l *Layout) locate(ppn PPN) (flat, chip, block, idx int) {
	flat = l.byPages.Div(int(ppn))
	chip = l.byBlocks.Div(flat)
	return flat, chip, flat - chip*l.blocksPerChip, int(ppn) - flat*l.pagesPerBlock
}

// Addr returns the page address of an in-range ppn (Geometry.AddrOfPPN
// without the divisions).
func (l *Layout) Addr(ppn PPN) PageAddr {
	_, chip, block, idx := l.locate(ppn)
	return PageAddr{BlockAddr: BlockAddr{Chip: chip, Block: block}, Page: core.PageFromIndex(idx, l.wordLines)}
}

// Divider divides by a fixed positive divisor with a multiply and a shift,
// exactly for every dividend in [0, 2^31) — which every page and block
// number is, by MaxPages. With l = ceil(log2 d) and m = ceil(2^(31+l) / d),
// m*d exceeds 2^(31+l) by less than 2^l, so floor(n*m / 2^(31+l)) =
// floor(n/d) (Granlund & Montgomery, "Division by invariant integers using
// multiplication", 1994, Theorem 4.2); n*m < 2^63 cannot overflow.
type Divider struct {
	m     uint64
	shift uint
}

// NewDivider returns the divider by d > 0.
func NewDivider(d int) Divider {
	l := uint(bits.Len(uint(d - 1)))
	return Divider{m: (uint64(1)<<(31+l) + uint64(d) - 1) / uint64(d), shift: 31 + l}
}

// Div returns n / d for n in [0, 2^31).
func (q Divider) Div(n int) int { return int(uint64(n) * q.m >> q.shift) }
