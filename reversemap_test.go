// Reverse-map invariant: the mapper keeps no inverse table in RAM. A valid
// page's LPN is the one programmed into its spare area, and one validity bit
// per physical page says which pages are valid. This guard drives every
// registry scheme through a run that garbage-collects, then checks the two
// halves against each other on every valid page.
package flexftl_test

import (
	"testing"

	"flexftl/internal/experiments"
	"flexftl/internal/ftl"
	"flexftl/internal/ftl/nflex"
	"flexftl/internal/nand"
	"flexftl/internal/rel"
	"flexftl/internal/sim"
	"flexftl/internal/workload"
)

// TestReverseMapInvariant runs each registry scheme (the MLC schemes, the
// hybrids and nflexTLC), and flexFTL on a pre-worn device with the BER model
// and DefaultRelPolicy, over a fully prefilled device through Fileserver
// (writes, reads and trims) and one idle second, and requires GC to have
// run. Then every valid page's spare LPN must map back to that page,
// Lookup(LPNAt(ppn)) == ppn, and the validity bits must count, block by
// block, the block's valid count and, in all, Mapped().
func TestReverseMapInvariant(t *testing.T) {
	setup := experiments.Setup{Geometry: experiments.EvalGeometry(), Requests: 6000, Seed: 42}
	var cells []experiments.Cell
	for _, scheme := range ftl.Names() {
		c := setup.Cell(scheme, workload.Fileserver())
		c.Label = scheme
		cells = append(cells, c)
	}
	cells = append(cells, setup.Cell("flexFTL", workload.Fileserver()).With("flexFTL+rel", func(c *experiments.Cell) {
		c.Env.Geometry.BlocksPerChip = 32
		rc := rel.DefaultConfig(7)
		c.Env.Reliability = &rc
		c.Env.Config.Reliability = ftl.DefaultRelPolicy()
		c.PreWear = 6000
	}))

	for _, c := range cells {
		c.SSD.PrefillFraction = 1
		t.Run(c.Label, func(t *testing.T) {
			sys, err := c.System()
			if err != nil {
				t.Fatal(err)
			}
			f := sys.F.(ftl.FTL)
			gen, err := workload.New(c.Profile, f.LogicalPages(), c.Requests, c.Seed)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := sys.Run(gen); err != nil {
				t.Fatal(err)
			}
			dev := f.Device()
			g := dev.Geometry()
			var drained sim.Time
			for chip := 0; chip < g.Chips(); chip++ {
				drained = max(drained, dev.ChipReadyAt(chip))
			}
			f.Idle(drained, drained+sim.Second)
			st := f.Stats()
			if st.ForegroundGCs+st.BackgroundGCs == 0 || st.GCCopies == 0 {
				t.Fatalf("the run collected nothing (%d fg, %d bg GCs, %d copies): the check is vacuous",
					st.ForegroundGCs, st.BackgroundGCs, st.GCCopies)
			}
			if c.PreWear > 0 && dev.RelCounts().RetriedReads == 0 {
				t.Fatal("the pre-worn run never entered the read-retry ladder")
			}
			checkReverseMap(t, mapperOf(t, f), dev.Layout().Blocks())
		})
	}
}

// mapperOf returns the mapping table a registry scheme mounts.
func mapperOf(t *testing.T, f ftl.FTL) *ftl.Mapper {
	t.Helper()
	switch f := f.(type) {
	case *ftl.Kernel:
		return f.Map
	case *nflex.FTL:
		return f.Base.Map
	}
	t.Fatalf("%s is a %T: no mapper to inspect", f.Name(), f)
	return nil
}

// checkReverseMap walks the valid pages of each of a mapper's blocks.
func checkReverseMap(t *testing.T, m *ftl.Mapper, blocks int) {
	t.Helper()
	var valid int64
	var pages []nand.PPN
	for flat := 0; flat < blocks; flat++ {
		a := m.BlockOfFlat(flat)
		pages = m.AppendValidPages(a, pages[:0])
		if len(pages) != m.ValidCount(a) {
			t.Fatalf("block %v: %d validity bits set, valid count %d", a, len(pages), m.ValidCount(a))
		}
		valid += int64(len(pages))
		for _, ppn := range pages {
			lpn, ok := m.LPNAt(ppn)
			if !ok {
				t.Fatalf("valid page %d has no LPN", ppn)
			}
			if back, ok := m.Lookup(lpn); !ok || back != ppn {
				t.Fatalf("page %d holds LPN %d in its spare, which maps to %d (%v)", ppn, lpn, back, ok)
			}
		}
	}
	if valid != m.Mapped() {
		t.Fatalf("%d validity bits set, %d LPNs mapped", valid, m.Mapped())
	}
}
