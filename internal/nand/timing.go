package nand

import (
	"fmt"

	"flexftl/internal/core"
	"flexftl/internal/sim"
)

// Timing holds the operation latencies of the device. Defaults follow the
// paper's 2X-nm MLC numbers: LSB program 500 us, MSB program 2000 us (4x),
// page read 40 us, block erase 5 ms, and a bus transfer time for one page
// (4 KB at 400 MB/s toggle DDR is ~10 us).
type Timing struct {
	Read    sim.Time // cell sensing time (tR)
	ProgLSB sim.Time // LSB page program (tPROG_LSB)
	ProgMSB sim.Time // MSB page program (tPROG_MSB)
	// ProgFiner holds the program latencies of levels 2 and up (TLC, QLC);
	// entries beyond the geometry's level count stay zero. A fixed array, so
	// Timing remains a plain comparable value.
	ProgFiner [MaxLevels - 2]sim.Time
	Erase     sim.Time // block erase (tBERS)
	BusXfer   sim.Time // one page data transfer over the channel
}

// DefaultTiming returns the paper's 2X-nm MLC latencies.
func DefaultTiming() Timing {
	return Timing{
		Read:    40 * sim.Microsecond,
		ProgLSB: 500 * sim.Microsecond,
		ProgMSB: 2000 * sim.Microsecond,
		Erase:   5 * sim.Millisecond,
		BusXfer: 10 * sim.Microsecond,
	}
}

// TLCTiming returns plausible 3-bit latencies: refinements get slower as
// placement gets finer (the same asymmetry Figure 1 shows for MLC, one level
// deeper).
func TLCTiming() Timing {
	return Timing{
		Read:      60 * sim.Microsecond,
		ProgLSB:   400 * sim.Microsecond,
		ProgMSB:   1100 * sim.Microsecond,
		ProgFiner: [MaxLevels - 2]sim.Time{3000 * sim.Microsecond},
		Erase:     6 * sim.Millisecond,
		BusXfer:   10 * sim.Microsecond,
	}
}

// Prog returns the cell program latency of a page level.
func (t Timing) Prog(level core.PageType) sim.Time {
	switch level {
	case core.LSB:
		return t.ProgLSB
	case core.MSB:
		return t.ProgMSB
	}
	return t.ProgFiner[level-2]
}

// Validate rejects non-positive or inverted latencies for a device of the
// given bits per cell.
func (t Timing) Validate(levels int) error {
	switch {
	case t.Read <= 0 || t.ProgLSB <= 0 || t.Erase <= 0:
		return fmt.Errorf("nand: all operation latencies must be positive: %+v", t)
	case t.BusXfer < 0:
		return fmt.Errorf("nand: negative bus transfer time %v", t.BusXfer)
	}
	for l := core.MSB; int(l) < levels; l++ {
		if t.Prog(l) < t.Prog(l-1) {
			return fmt.Errorf("nand: %v program (%v) faster than %v (%v) contradicts refinement asymmetry",
				l, t.Prog(l), l-1, t.Prog(l-1))
		}
	}
	return nil
}

// Asymmetry returns tPROG_MSB / tPROG_LSB (4.0 for the defaults).
func (t Timing) Asymmetry() float64 {
	return float64(t.ProgMSB) / float64(t.ProgLSB)
}
