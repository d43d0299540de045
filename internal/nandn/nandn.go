// Package nandn is a name shim over internal/nand, the one NAND device
// (TLC is nand.Geometry.Levels = 3). It exists only because bench/micro.go
// and bench/measure.go (frozen while benchmark rows are compared across
// PRs) build the TLC micro device and read its counters through these
// names; the next benchmark PR retargets tlcMicroDevice and deviceCounts to
// nand and deletes this package. Nothing else may import it, and it holds no
// state, rule or timing of its own.
package nandn

import (
	"flexftl/internal/core"
	"flexftl/internal/nand"
	"flexftl/internal/sim"
)

// Geometry, Timing and PageBuf are nand's types.
type (
	Geometry = nand.Geometry
	Timing   = nand.Timing
	PageBuf  = nand.PageBuf
)

// TLCGeometry is nand.TLCGeometry.
func TLCGeometry() Geometry { return nand.TLCGeometry() }

// TLCTiming is nand.TLCTiming.
func TLCTiming() Timing { return nand.TLCTiming() }

// PageAddr is nand.PageAddr with the block address spelled as two fields.
type PageAddr struct {
	Chip  int
	Block int
	Page  core.Page
}

func (a PageAddr) addr() nand.PageAddr {
	return nand.PageAddr{BlockAddr: nand.BlockAddr{Chip: a.Chip, Block: a.Block}, Page: a.Page}
}

// Device adapts a *nand.Device enforcing core.RPS to the three-field
// addresses; every other method is the embedded device's own.
type Device struct{ *nand.Device }

// NewDevice builds a nand.Device enforcing the relaxed program sequence.
func NewDevice(g Geometry, t Timing) (Device, error) {
	dev, err := nand.NewDevice(nand.Config{Geometry: g, Timing: t, Rules: core.RPS})
	return Device{dev}, err
}

// Program is nand.Device.Program.
func (d Device) Program(a PageAddr, data, spare []byte, now sim.Time) (sim.Time, error) {
	return d.Device.Program(a.addr(), data, spare, now)
}

// ReadInto is nand.Device.ReadInto.
func (d Device) ReadInto(a PageAddr, buf *PageBuf, now sim.Time) (sim.Time, error) {
	return d.Device.ReadInto(a.addr(), buf, now)
}

// Erase is nand.Device.Erase.
func (d Device) Erase(chip, blk int, now sim.Time) (sim.Time, error) {
	return d.Device.Erase(nand.BlockAddr{Chip: chip, Block: blk}, now)
}

// Reads, Erases and Programs (per level) spell nand.Device.Counts the way
// bench/measure.go reads it.
func (d Device) Reads() int64  { return d.Counts().Reads }
func (d Device) Erases() int64 { return d.Counts().Erases }
func (d Device) Programs() []int64 {
	return d.Counts().ProgramsByLevel(d.Geometry().BitsPerCell())
}
