// Golden equivalence guard for garbage collection. The goldens of
// equivalence_test.go run 12 000 OLTP and Varmail requests after an 85 %
// prefill, and none of them collects a block on an MLC scheme. These cells
// run every MLC scheme on the two write-dominant workloads, NTRX and
// Fileserver, long enough that the run stalls a host write on a foreground
// GC, then give the drained device one idle second for background GC. Each
// cell asserts both happened, so a change cannot quietly leave GC uncovered.
//
// Regenerate with UPDATE_EQUIV=1 go test -run TestEquivalenceGC . (only
// legitimate when a behavior change is intended and reviewed).
package flexftl_test

import (
	"fmt"
	"testing"

	"flexftl/internal/experiments"
	"flexftl/internal/sim"
	"flexftl/internal/ssd"
	"flexftl/internal/workload"
)

// gcCell is one GC golden. requests is the shortest run, in steps of
// 1 000 requests from a full prefill at seed 42, whose run recorded a
// foreground GC. NTRX leaves a saturated device no idle window, so on
// parityFTL and rtfFTL the background GC comes only from the trailing
// idle second.
type gcCell struct {
	scheme   string
	prof     workload.Profile
	requests int
}

func gcCells() []gcCell {
	ntrx, fs := workload.NTRX(), workload.Fileserver()
	return []gcCell{
		{"pageFTL", ntrx, 18000}, {"pageFTL", fs, 53000},
		{"parityFTL", ntrx, 14000}, {"parityFTL", fs, 35000},
		{"rtfFTL", ntrx, 6000}, {"rtfFTL", fs, 8000},
		{"flexFTL", ntrx, 16000}, {"flexFTL", fs, 35000},
	}
}

// captureGC runs one cell: the whole logical space prefilled, the
// workload, then one idle second from the moment the last chip drains.
// Stats are read after the idle second; Metrics cover the run.
func captureGC(t *testing.T, c gcCell) equivSnapshot {
	t.Helper()
	f, err := experiments.BuildFTL(c.scheme, experiments.EvalGeometry())
	if err != nil {
		t.Fatal(err)
	}
	cfg := ssd.DefaultConfig()
	cfg.PrefillFraction = 1
	checked := mountOracle(t, f)
	sys, err := ssd.New(checked, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sys.Prefill(); err != nil {
		t.Fatal(err)
	}
	gen, err := workload.New(c.prof, f.LogicalPages(), c.requests, 42)
	if err != nil {
		t.Fatal(err)
	}
	run, err := sys.Run(gen)
	if err != nil {
		t.Fatal(err)
	}
	checked.verify(t)
	dev := f.Device()
	var drained sim.Time
	for chip := 0; chip < dev.Geometry().Chips(); chip++ {
		drained = max(drained, dev.ChipReadyAt(chip))
	}
	f.Idle(drained, drained+sim.Second)
	st := f.Stats()
	if st.ForegroundGCs == 0 || st.BackgroundGCs == 0 {
		t.Fatalf("%s on %s ran %d foreground and %d background GCs; a GC golden needs both",
			c.scheme, c.prof.Name, st.ForegroundGCs, st.BackgroundGCs)
	}
	checkCDFPin(t, "gc_"+c.scheme+"_"+c.prof.Name, run.Metrics.BandwidthCDF)
	run.Metrics.BandwidthCDF = nil
	return equivSnapshot{
		FTLName:    run.FTLName,
		Workload:   run.Workload,
		Metrics:    run.Metrics,
		Stats:      st,
		MapHash:    f.(interface{ MappingHash() uint64 }).MappingHash(),
		FreeBlocks: f.(interface{ TotalFreeBlocks() int }).TotalFreeBlocks(),
		Device:     dev.Counts(),
	}
}

func TestEquivalenceGC(t *testing.T) {
	for _, c := range gcCells() {
		name := fmt.Sprintf("gc_%s_%s", c.scheme, c.prof.Name)
		t.Run(name, func(t *testing.T) {
			snap := captureGC(t, c)
			checkGolden(t, name, &snap, func() any { return &equivSnapshot{} })
		})
	}
}
