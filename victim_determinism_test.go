// End-to-end determinism pin for the O(1) victim index: a full ssd.Run with
// the indexed picker must produce results byte-identical to the retained
// reference linear scan, for every FTL and both GC policies. This is the
// contract that lets the index replace the scan without an accuracy audit —
// any drift in victim choice cascades into different GC timing, erase counts,
// and IOPS, and DeepEqual on the whole RunResult would catch it.
package flexftl_test

import (
	"reflect"
	"testing"

	"flexftl/internal/core"
	"flexftl/internal/experiments"
	"flexftl/internal/ftl"
	"flexftl/internal/nand"
	"flexftl/internal/ssd"
	"flexftl/internal/workload"
)

// victimReferencer is implemented by every FTL embedding ftl.Base (and by
// nflex, tested in its own package): it flips every chip pool between the
// indexed picker and the reference scan.
type victimReferencer interface {
	SetVictimReference(bool)
}

// runWithPicker builds a fresh FTL, optionally switches it to the reference
// picker, and runs the standard prefill + workload cycle.
func runWithPicker(t *testing.T, build func() (ftl.FTL, error), prof workload.Profile, reference bool) ssd.RunResult {
	t.Helper()
	f, err := build()
	if err != nil {
		t.Fatal(err)
	}
	vr, ok := f.(victimReferencer)
	if !ok {
		t.Fatalf("%T does not expose SetVictimReference", f)
	}
	vr.SetVictimReference(reference)
	sys, err := ssd.New(f, ssd.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sys.Prefill(); err != nil {
		t.Fatal(err)
	}
	gen, err := workload.New(prof, f.LogicalPages(), 6000, 42)
	if err != nil {
		t.Fatal(err)
	}
	res, err := sys.Run(gen)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestVictimIndexEndToEnd runs every scheme under a GC-heavy workload with
// both pickers and requires identical RunResults.
func TestVictimIndexEndToEnd(t *testing.T) {
	for _, scheme := range experiments.Schemes() {
		scheme := scheme
		for _, prof := range []workload.Profile{workload.NTRX(), workload.Varmail()} {
			prof := prof
			t.Run(scheme+"/"+prof.Name, func(t *testing.T) {
				t.Parallel()
				build := func() (ftl.FTL, error) {
					return experiments.BuildFTL(scheme, benchGeometry())
				}
				indexed := runWithPicker(t, build, prof, false)
				ref := runWithPicker(t, build, prof, true)
				if !reflect.DeepEqual(indexed, ref) {
					t.Errorf("indexed picker diverged from reference scan:\nindexed:   %+v\nreference: %+v", indexed, ref)
				}
			})
		}
	}
}

// TestVictimIndexEndToEndCostBenefit repeats the pin under the cost-benefit
// policy, which exercises the lazily rebuilt heap instead of the buckets.
func TestVictimIndexEndToEndCostBenefit(t *testing.T) {
	builders := []struct {
		name  string
		build func(cfg ftl.Config) (ftl.FTL, error)
	}{
		{"pageFTL", func(cfg ftl.Config) (ftl.FTL, error) {
			return ftl.NewPageFTL(newDetDevice(core.FPS), cfg)
		}},
		{"parityFTL", func(cfg ftl.Config) (ftl.FTL, error) {
			return ftl.NewParityFTL(newDetDevice(core.FPS), cfg)
		}},
		{"rtfFTL", func(cfg ftl.Config) (ftl.FTL, error) {
			return ftl.NewRTFFTL(newDetDevice(core.FPS), cfg)
		}},
		{"flexFTL", func(cfg ftl.Config) (ftl.FTL, error) {
			return ftl.NewFlexFTL(newDetDevice(core.RPS), cfg, ftl.DefaultFlexParams())
		}},
	}
	for _, bc := range builders {
		bc := bc
		t.Run(bc.name, func(t *testing.T) {
			t.Parallel()
			cfg := ftl.DefaultConfig()
			cfg.GC = ftl.GCCostBenefit
			build := func() (ftl.FTL, error) { return bc.build(cfg) }
			prof := workload.NTRX()
			indexed := runWithPicker(t, build, prof, false)
			ref := runWithPicker(t, build, prof, true)
			if !reflect.DeepEqual(indexed, ref) {
				t.Errorf("cost-benefit indexed picker diverged from reference:\nindexed:   %+v\nreference: %+v", indexed, ref)
			}
		})
	}
}

// newDetDevice builds the bench-scale device used by the determinism tests;
// panics on error because the geometry is a compile-time constant.
func newDetDevice(rules core.RuleSet) *nand.Device {
	dev, err := nand.NewDevice(nand.Config{
		Geometry: benchGeometry(), Timing: nand.DefaultTiming(), Rules: rules,
	})
	if err != nil {
		panic(err)
	}
	return dev
}
