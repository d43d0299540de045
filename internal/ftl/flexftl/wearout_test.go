package flexftl

import (
	"testing"

	"flexftl/internal/core"
	"flexftl/internal/ftl"
	"flexftl/internal/nand"
	"flexftl/internal/rng"
	"flexftl/internal/sim"
)

// TestWearOutRetiresBlocksGracefully: with a tiny erase budget, blocks wear
// out mid-run; the FTL must retire them (shrinking capacity) and keep
// serving I/O rather than failing.
func TestWearOutRetiresBlocksGracefully(t *testing.T) {
	dev, err := nand.NewDevice(nand.Config{
		Geometry:    nand.TestGeometry(),
		Timing:      nand.DefaultTiming(),
		Rules:       core.RPS,
		EraseBudget: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	f, err := ftl.NewFlexFTL(dev, ftl.DefaultConfig(), ftl.DefaultFlexParams())
	if err != nil {
		t.Fatal(err)
	}
	src := rng.New(91)
	logical := f.LogicalPages()
	z := rng.NewZipf(src, int(logical), 0.95)
	now := sim.Time(0)
	wrote := int64(0)
	for i := int64(0); i < 6*logical; i++ {
		done, werr := f.Write(ftl.LPN(z.Next()), now, src.Float64())
		if werr != nil {
			// Once enough capacity has retired, running out of space is a
			// legitimate end state — but only after real progress and with
			// retirements recorded.
			break
		}
		wrote++
		now = done
		if i%555 == 554 {
			f.Idle(now, now+200*sim.Millisecond)
			now += 200 * sim.Millisecond
		}
	}
	st := f.Stats()
	if st.RetiredBlocks == 0 {
		t.Fatalf("no blocks retired despite erase budget 4 (erases %d)", st.Erases)
	}
	if wrote < logical {
		t.Errorf("FTL failed after only %d writes (logical %d)", wrote, logical)
	}
	// Retired blocks must not be double-counted as free: each block has
	// exactly one holder, device retirement included.
	if err := f.Snapshot().CheckBlocks(f.Pools, f.Dev); err != nil {
		t.Error(err)
	}
}
