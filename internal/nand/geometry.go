// Package nand models a multi-channel multi-level-cell NAND flash subsystem
// at operation granularity: per-chip and per-channel busy timelines,
// per-level program latency asymmetry (each refinement is slower),
// program-order enforcement (FPS or RPS via internal/core), page payload
// storage with spare areas, erase/wear accounting, and sudden-power-off
// corruption of a word line's earlier pages during a destructive refinement
// program.
//
// At its default of 2 bits per cell the model stands in for the BlueDBM
// custom MLC NAND board the paper uses: every effect the paper's evaluation
// depends on — operation latencies, order legality, backup-write counts,
// channel contention — is captured at this granularity. Geometry.Levels = 3
// or 4 makes the same device TLC or QLC, the paper's Section 1 applicability
// claim ("RPS applies to TLC devices with a similar program scheme") as a
// working storage system.
package nand

import (
	"fmt"

	"flexftl/internal/core"
)

// MaxLevels is the finest cell the device models (4 bits per cell, QLC).
const MaxLevels = 4

// Geometry describes the physical organization of the device.
type Geometry struct {
	Channels          int // independent buses
	ChipsPerChannel   int // NAND dies sharing one bus
	BlocksPerChip     int
	WordLinesPerBlock int // pages per block = bits per cell * word lines
	Levels            int // bits per cell: 0 or 2 = MLC (the paper's device), 3 = TLC, 4 = QLC
	PageSizeBytes     int // logical page payload size (host-visible)
	SpareBytes        int // out-of-band spare area per page
}

// DefaultGeometry is the paper's 16 GB BlueDBM configuration: 8 channels x 4
// chips, 512 blocks per chip, 256 pages (128 word lines) of 4 KB per block.
func DefaultGeometry() Geometry {
	return Geometry{
		Channels:          8,
		ChipsPerChannel:   4,
		BlocksPerChip:     512,
		WordLinesPerBlock: 128,
		PageSizeBytes:     4096,
		SpareBytes:        64,
	}
}

// TestGeometry is a small configuration for unit tests: 2 channels x 2
// chips, 32 blocks per chip, 8 word lines.
func TestGeometry() Geometry {
	return Geometry{
		Channels:          2,
		ChipsPerChannel:   2,
		BlocksPerChip:     32,
		WordLinesPerBlock: 8,
		PageSizeBytes:     64,
		SpareBytes:        16,
	}
}

// TLCGeometry is a small 3-bit evaluation configuration.
func TLCGeometry() Geometry {
	return Geometry{
		Channels:          2,
		ChipsPerChannel:   2,
		BlocksPerChip:     64,
		WordLinesPerBlock: 32,
		Levels:            3,
		PageSizeBytes:     4096,
		SpareBytes:        64,
	}
}

// Validate reports a descriptive error for an unusable geometry.
func (g Geometry) Validate() error {
	switch {
	case g.Channels <= 0:
		return fmt.Errorf("nand: geometry needs >= 1 channel, got %d", g.Channels)
	case g.ChipsPerChannel <= 0:
		return fmt.Errorf("nand: geometry needs >= 1 chip per channel, got %d", g.ChipsPerChannel)
	case g.BlocksPerChip <= 0:
		return fmt.Errorf("nand: geometry needs >= 1 block per chip, got %d", g.BlocksPerChip)
	case g.WordLinesPerBlock <= 0:
		return fmt.Errorf("nand: geometry needs >= 1 word line per block, got %d", g.WordLinesPerBlock)
	case g.Levels != 0 && (g.Levels < 2 || g.Levels > MaxLevels):
		return fmt.Errorf("nand: geometry needs 2..%d levels (bits per cell), got %d", MaxLevels, g.Levels)
	case g.PageSizeBytes <= 0:
		return fmt.Errorf("nand: geometry needs positive page size, got %d", g.PageSizeBytes)
	case g.SpareBytes < 0:
		return fmt.Errorf("nand: negative spare size %d", g.SpareBytes)
	}
	return nil
}

// Chips returns the total number of chips.
func (g Geometry) Chips() int { return g.Channels * g.ChipsPerChannel }

// BitsPerCell returns the number of pages a word line carries: Levels, with
// the zero value meaning the paper's 2-bit MLC.
func (g Geometry) BitsPerCell() int {
	if g.Levels == 0 {
		return 2
	}
	return g.Levels
}

// Scheme returns the per-block shape the program-order rules work on.
func (g Geometry) Scheme() core.Scheme {
	return core.Scheme{Levels: g.BitsPerCell(), WordLines: g.WordLinesPerBlock}
}

// PagesPerBlock returns BitsPerCell * WordLinesPerBlock.
func (g Geometry) PagesPerBlock() int { return g.BitsPerCell() * g.WordLinesPerBlock }

// LSBPagesPerBlock returns the number of fast pages per block.
func (g Geometry) LSBPagesPerBlock() int { return g.WordLinesPerBlock }

// TotalBlocks returns the number of blocks in the device.
func (g Geometry) TotalBlocks() int { return g.Chips() * g.BlocksPerChip }

// TotalPages returns the number of physical pages in the device.
func (g Geometry) TotalPages() int { return g.TotalBlocks() * g.PagesPerBlock() }

// CapacityBytes returns the raw capacity in bytes.
func (g Geometry) CapacityBytes() int64 {
	return int64(g.TotalPages()) * int64(g.PageSizeBytes)
}

// ChannelOf returns the channel a chip is attached to.
func (g Geometry) ChannelOf(chip int) int { return chip / g.ChipsPerChannel }

// String summarizes the geometry.
func (g Geometry) String() string {
	cell := ""
	if bits := g.BitsPerCell(); bits != 2 {
		cell = fmt.Sprintf(" (%d WL x %d bits)", g.WordLinesPerBlock, bits)
	}
	return fmt.Sprintf("%dch x %dchips, %d blocks/chip, %d pages/block%s, %dB pages (%.1f GB)",
		g.Channels, g.ChipsPerChannel, g.BlocksPerChip, g.PagesPerBlock(), cell, g.PageSizeBytes,
		float64(g.CapacityBytes())/(1<<30))
}

// BlockAddr identifies a physical block.
type BlockAddr struct {
	Chip  int
	Block int
}

// String formats the address.
func (b BlockAddr) String() string { return fmt.Sprintf("chip%d/blk%d", b.Chip, b.Block) }

// PageAddr identifies a physical page by block plus in-block page.
type PageAddr struct {
	BlockAddr
	Page core.Page
}

// String formats the address.
func (p PageAddr) String() string {
	return fmt.Sprintf("%s/%v", p.BlockAddr, p.Page)
}

// PPN is a flat physical page number, used as a compact mapping-table value.
type PPN int64

// InvalidPPN marks an unmapped entry.
const InvalidPPN PPN = -1

// PPNOf flattens a page address. Layout: ((chip*blocksPerChip)+block)*
// pagesPerBlock + pageIndex, where pageIndex is core.Page.Index.
func (g Geometry) PPNOf(a PageAddr) PPN {
	return PPN((int64(a.Chip)*int64(g.BlocksPerChip)+int64(a.Block))*int64(g.PagesPerBlock()) +
		int64(a.Page.Index(g.WordLinesPerBlock)))
}

// AddrOfPPN inverts PPNOf.
func (g Geometry) AddrOfPPN(ppn PPN) PageAddr {
	if ppn < 0 {
		panic("nand: AddrOfPPN of invalid PPN")
	}
	pp := int64(g.PagesPerBlock())
	pageIdx := int(int64(ppn) % pp)
	blockFlat := int64(ppn) / pp
	return PageAddr{
		BlockAddr: BlockAddr{
			Chip:  int(blockFlat / int64(g.BlocksPerChip)),
			Block: int(blockFlat % int64(g.BlocksPerChip)),
		},
		Page: core.PageFromIndex(pageIdx, g.WordLinesPerBlock),
	}
}
