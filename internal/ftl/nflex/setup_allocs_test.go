package nflex

import (
	"runtime/debug"
	"testing"

	"flexftl/internal/alloctest"
	"flexftl/internal/core"
	"flexftl/internal/ftl"
	"flexftl/internal/nand"
)

// setupAllocsPerChip bounds how many allocations building a kernel may add
// per chip. Every piece of per-chip state is a window of a device-wide array,
// so going from 8 to 32 chips adds none.
const setupAllocsPerChip = 0

// TestSetupAllocationsFlat guards the once-sized setup: building a flexFTL
// kernel or an nflexTLC FTL (device included) allocates the same number of
// times at 128 and at 512 blocks per chip, and at most setupAllocsPerChip
// more per chip from 8 to 32 chips. Per-block state that grows by append, or
// per-chip state allocated chip by chip, fails it.
func TestSetupAllocationsFlat(t *testing.T) {
	builders := []struct {
		name   string
		levels int
		build  func(*nand.Device) error
	}{
		{"flexFTL", 2, func(dev *nand.Device) error {
			_, err := ftl.NewFlexFTL(dev, ftl.DefaultConfig(), ftl.DefaultFlexParams())
			return err
		}},
		{"nflexTLC", 3, func(dev *nand.Device) error {
			_, err := New(dev, ftl.DefaultConfig(), DefaultParams())
			return err
		}},
	}
	// A collection that starts inside a measured build allocates for the
	// runtime and would be charged to the build.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	for _, b := range builders {
		const runs = 3
		allocs := func(chipsPerChannel, blocks int) int {
			g := nand.Geometry{Channels: 4, ChipsPerChannel: chipsPerChannel, BlocksPerChip: blocks,
				WordLinesPerBlock: 8, Levels: b.levels, PageSizeBytes: 4096, SpareBytes: 64}
			tm := nand.DefaultTiming()
			if b.levels == 3 {
				tm = nand.TLCTiming()
			}
			var err error
			n := alloctest.Count(runs, func() {
				var dev *nand.Device
				if dev, err = nand.NewDevice(nand.Config{Geometry: g, Timing: tm, Rules: core.RPS}); err == nil {
					err = b.build(dev)
				}
			})
			if err != nil {
				t.Fatalf("%s on %v: %v", b.name, g, err)
			}
			return n
		}
		small, large, wide := allocs(2, 128), allocs(2, 512), allocs(8, 128)
		t.Logf("%s, %d setups: 8 chips x 128 blocks %d, x 512 blocks %d; 32 chips x 128 blocks %d", b.name, runs, small, large, wide)
		if large != small {
			t.Errorf("%s: %d allocations at 512 blocks per chip, %d at 128: setup grows with block count", b.name, large, small)
		}
		if wide > small+runs*setupAllocsPerChip*24 {
			t.Errorf("%s: %d allocations at 32 chips, %d at 8 (%d setups): more than %d per added chip", b.name, wide, small, runs, setupAllocsPerChip)
		}
	}
}
