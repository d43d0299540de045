package nflex

import (
	"reflect"
	"testing"

	"flexftl/internal/ftl"
	"flexftl/internal/rng"
	"flexftl/internal/sim"
)

// TestVictimIndexMatchesReferenceNflex is the n-level determinism pin: two
// FTLs driven by the identical write/trim/idle sequence — one on the indexed
// victim picker, one on the reference linear scan — must end with the same
// statistics and the same logical-to-physical mapping. nflex picks victims
// through its own foreground loop and idle threshold, which the root ssd.Run
// DeepEqual tests (kernel schemes only) do not drive.
func TestVictimIndexMatchesReferenceNflex(t *testing.T) {
	run := func(reference bool) (ftl.Stats, uint64, []int) {
		f := newTLC(t)
		f.SetVictimReference(reference)
		src := rng.New(29)
		logical := f.LogicalPages()
		now := sim.Time(0)
		var err error
		for i := int64(0); i < 3*logical; i++ {
			lpn := ftl.LPN(src.Int63n(logical))
			if src.Bool(0.15) {
				now, err = f.Trim(lpn, now)
			} else {
				now, err = f.Write(lpn, now, src.Float64())
			}
			if err != nil {
				t.Fatal(err)
			}
			if i%500 == 499 {
				f.Idle(now, now+100*sim.Millisecond)
				now += 100 * sim.Millisecond
			}
		}
		free := make([]int, len(f.Base.Pools))
		for c := range f.Base.Pools {
			free[c] = f.Base.Pools[c].FreeCount()
		}
		return f.Stats(), f.MappingHash(), free
	}
	idxStats, idxMap, idxFree := run(false)
	refStats, refMap, refFree := run(true)
	if idxStats != refStats {
		t.Errorf("stats diverged:\nindexed:   %+v\nreference: %+v", idxStats, refStats)
	}
	if idxMap != refMap {
		t.Error("logical-to-physical mapping diverged between indexed and reference pickers")
	}
	if !reflect.DeepEqual(idxFree, refFree) {
		t.Errorf("per-chip free counts diverged: indexed %v, reference %v", idxFree, refFree)
	}
}
