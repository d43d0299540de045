package ftl_test

import (
	"testing"

	"flexftl/internal/ftl"
	"flexftl/internal/ftl/nflex"
	"flexftl/internal/nand"
)

// TestChipBudgetLevels pins every registry scheme's per-chip free-block
// budget, level by level, as literal numbers at MinFreeBlocksPerChip 1, 2
// and 3. The levels carry their historical asymmetries (Reclaim counts a
// backup writer, Emergency and Refill do not; the FPS orders are quiet at
// Reclaim, the phased ones at Thin); a change that regularizes one must
// show up here by scheme name.
func TestChipBudgetLevels(t *testing.T) {
	// Per scheme, per m = 1, 2, 3: Reclaim, Spare, Thin, Emergency, Refill,
	// Quiet.
	want := map[string][3][6]int{
		"pageFTL":           {{1, 2, 2, 2, 1, 1}, {2, 3, 3, 2, 2, 2}, {3, 4, 4, 2, 3, 3}},
		"parityFTL":         {{2, 2, 2, 2, 1, 2}, {3, 3, 3, 2, 2, 3}, {4, 4, 4, 2, 3, 4}},
		"rtfFTL":            {{2, 2, 2, 2, 1, 2}, {3, 3, 3, 2, 2, 3}, {4, 4, 4, 2, 3, 4}},
		"rtfFTL-adaptive":   {{2, 2, 2, 2, 1, 2}, {3, 3, 3, 2, 2, 3}, {4, 4, 4, 2, 3, 4}},
		"flexFTL":           {{2, 2, 2, 2, 1, 2}, {3, 3, 3, 2, 2, 3}, {4, 4, 4, 2, 3, 4}},
		"flexFTL-nobackup":  {{1, 2, 2, 2, 1, 2}, {2, 3, 3, 2, 2, 3}, {3, 4, 4, 2, 3, 4}},
		"flexFTL-hotcold":   {{3, 3, 3, 3, 1, 3}, {4, 4, 4, 3, 2, 4}, {5, 5, 5, 3, 3, 5}},
		"flexFTL-wearAware": {{3, 3, 3, 3, 1, 3}, {4, 4, 4, 3, 2, 4}, {5, 5, 5, 3, 3, 5}},
		"pageFTL-hotcold":   {{2, 3, 3, 3, 1, 2}, {3, 4, 4, 3, 2, 3}, {4, 5, 5, 3, 3, 4}},
		"pageFTL-wearAware": {{2, 3, 3, 3, 1, 2}, {3, 4, 4, 3, 2, 3}, {4, 5, 5, 3, 3, 4}},
		"nflexTLC":          {{2, 2, 2, 2, 1, 2}, {3, 3, 3, 2, 2, 3}, {4, 4, 4, 2, 3, 4}},
	}
	for _, name := range ftl.Names() {
		rows, ok := want[name]
		if !ok {
			t.Errorf("%s: registered scheme has no budget row", name)
			continue
		}
		for i, w := range rows {
			m := i + 1
			cfg := ftl.DefaultConfig()
			cfg.MinFreeBlocksPerChip = m
			f, err := ftl.BuildFTL(name, ftl.BuildEnv{Geometry: nand.TestGeometry(), Config: cfg, Flex: ftl.DefaultFlexParams()})
			if err != nil {
				t.Fatalf("%s m=%d: %v", name, m, err)
			}
			var base *ftl.Base
			switch f := f.(type) {
			case *ftl.Kernel:
				base = f.Base
			case *nflex.FTL:
				base = f.Base
			default:
				t.Fatalf("%s: unexpected FTL type %T", name, f)
			}
			b := base.Budget
			got := [6]int{b.Reclaim, b.Spare, b.Thin, b.Emergency, b.Refill, b.Quiet}
			if got != w {
				t.Errorf("%s m=%d: Reclaim, Spare, Thin, Emergency, Refill, Quiet = %v, want %v", name, m, got, w)
			}
		}
	}
}
