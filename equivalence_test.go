// Golden equivalence guard for the FTL-kernel refactor: every named FTL is
// driven through the full runner on two workloads and its complete outcome
// (metrics, stats, final mapping state, device operation counts) is pinned
// against a checked-in golden captured from the pre-refactor monoliths.
// reflect.DeepEqual on the decoded goldens makes any behavioral drift —
// a single reordered device operation, one extra erase, a different GC
// victim — a test failure, the same pattern PR 3 used for the victim index.
//
// Regenerate with UPDATE_EQUIV=1 go test -run TestEquivalence . (only
// legitimate when a behavior change is intended and reviewed).
package flexftl_test

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"flexftl/internal/core"
	"flexftl/internal/experiments"
	"flexftl/internal/ftl"
	"flexftl/internal/ftl/nflex"
	"flexftl/internal/metrics"
	"flexftl/internal/nand"
	"flexftl/internal/sim"
	"flexftl/internal/ssd"
	"flexftl/internal/workload"
)

const equivRequests = 12000

// equivSnapshot is the pinned outcome of one (FTL, workload) run.
type equivSnapshot struct {
	FTLName    string
	Workload   string
	Metrics    metrics.Result
	Stats      ftl.Stats
	MapHash    uint64
	FreeBlocks int
	Device     nand.OpCounts
}

// equivWorkloads are the two profiles the guard runs: a bursty
// trim-heavy profile and a steady transactional one.
func equivWorkloads() []workload.Profile {
	return []workload.Profile{workload.Varmail(), workload.OLTP()}
}

func captureMLC(t *testing.T, scheme string, prof workload.Profile) equivSnapshot {
	t.Helper()
	f, err := experiments.BuildFTL(scheme, experiments.EvalGeometry())
	if err != nil {
		t.Fatal(err)
	}
	checked := mountOracle(t, f)
	sys, err := ssd.New(checked, ssd.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sys.Prefill(); err != nil {
		t.Fatal(err)
	}
	gen, err := workload.New(prof, f.LogicalPages(), equivRequests, 42)
	if err != nil {
		t.Fatal(err)
	}
	run, err := sys.Run(gen)
	if err != nil {
		t.Fatal(err)
	}
	checked.verify(t)
	// The bandwidth CDF holds one sample per window — bulky and fully
	// determined by the rest of the run. Mean/Peak pin its content, and
	// bandwidth_cdf_test.go its shape.
	checkCDFPin(t, scheme+"_"+prof.Name, run.Metrics.BandwidthCDF)
	run.Metrics.BandwidthCDF = nil
	hasher := f.(interface{ MappingHash() uint64 })
	free := f.(interface{ TotalFreeBlocks() int })
	return equivSnapshot{
		FTLName:    run.FTLName,
		Workload:   run.Workload,
		Metrics:    run.Metrics,
		Stats:      run.Stats,
		MapHash:    hasher.MappingHash(),
		FreeBlocks: free.TotalFreeBlocks(),
		Device:     f.Device().Counts(),
	}
}

// nflexSnapshot pins the n-level FTL, driven by the same runner semantics
// via a local loop (kept independent of internal/ssd so the capture is
// identical before and after nflex learns to run under it).
type nflexSnapshot struct {
	FTLName     string
	Workload    string
	HostReads   int64
	HostWrites  int64
	HostByLevel []int64
	GCCopies    int64
	Backups     int64
	Erases      int64
	FgGCs       int64
	BgGCs       int64
	MapHash     uint64
	FreeBlocks  int
	EndTime     sim.Time
	DevReads    int64
	DevErases   int64
	DevPrograms []int64
}

func captureNflex(t *testing.T, prof workload.Profile) nflexSnapshot {
	t.Helper()
	dev, err := nand.NewDevice(nand.Config{Geometry: nand.TLCGeometry(), Timing: nand.TLCTiming(), Rules: core.RPS})
	if err != nil {
		t.Fatal(err)
	}
	f, err := nflex.New(dev, ftl.DefaultConfig(), nflex.DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	// Sequential prefill to 85% of the logical space, like ssd.Prefill.
	now := sim.Time(0)
	n := int64(float64(f.LogicalPages()) * 0.85)
	for lpn := int64(0); lpn < n; lpn++ {
		done, err := f.Write(ftl.LPN(lpn), now, 0.5)
		if err != nil {
			t.Fatalf("prefill LPN %d: %v", lpn, err)
		}
		now = done
	}
	base := now
	gen, err := workload.New(prof, f.LogicalPages(), equivRequests, 42)
	if err != nil {
		t.Fatal(err)
	}
	logical := f.LogicalPages()
	busyUntil := base
	const idleThreshold = 1 * sim.Millisecond
	for {
		req, ok := gen.Next()
		if !ok {
			break
		}
		arrival := base + req.Arrival
		if arrival > busyUntil+idleThreshold {
			f.Idle(busyUntil, arrival)
		}
		switch req.Op {
		case workload.OpRead:
			completion := arrival
			for p := 0; p < req.Pages; p++ {
				lpn := ftl.LPN((req.Page + int64(p)) % logical)
				done, err := f.Read(lpn, arrival)
				if err != nil {
					continue // unmapped: served from the zero map
				}
				if done > completion {
					completion = done
				}
			}
			if completion > busyUntil {
				busyUntil = completion
			}
		case workload.OpWrite:
			wnow := arrival
			for p := 0; p < req.Pages; p++ {
				lpn := ftl.LPN((req.Page + int64(p)) % logical)
				done, err := f.Write(lpn, wnow, 0.5)
				if err != nil {
					t.Fatalf("write LPN %d: %v", lpn, err)
				}
				wnow = done
			}
			if wnow > busyUntil {
				busyUntil = wnow
			}
		case workload.OpTrim:
			for p := 0; p < req.Pages; p++ {
				lpn := ftl.LPN((req.Page + int64(p)) % logical)
				if _, err := f.Trim(lpn, arrival); err != nil {
					t.Fatalf("trim LPN %d: %v", lpn, err)
				}
			}
		}
	}
	st := f.Stats()
	return nflexSnapshot{
		FTLName:     f.Name(),
		Workload:    gen.Name(),
		HostReads:   st.HostReads,
		HostWrites:  st.HostWrites,
		HostByLevel: f.HostWritesByLevel(),
		GCCopies:    st.GCCopies,
		Backups:     st.BackupWrites,
		Erases:      st.Erases,
		FgGCs:       st.ForegroundGCs,
		BgGCs:       st.BackgroundGCs,
		MapHash:     f.MappingHash(),
		FreeBlocks:  f.TotalFreeBlocks(),
		EndTime:     busyUntil,
		DevReads:    dev.Counts().Reads,
		DevErases:   dev.Counts().Erases,
		DevPrograms: dev.Counts().ProgramsByLevel(dev.Geometry().BitsPerCell()),
	}
}

func goldenPath(name string) string {
	return filepath.Join("testdata", "equivalence", name+".json")
}

func checkGolden(t *testing.T, name string, got any, fresh func() any) {
	t.Helper()
	path := goldenPath(name)
	if os.Getenv("UPDATE_EQUIV") != "" {
		buf, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, append(buf, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	buf, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden %s (run with UPDATE_EQUIV=1 to create): %v", path, err)
	}
	want := fresh()
	if err := json.Unmarshal(buf, want); err != nil {
		t.Fatalf("decoding %s: %v", path, err)
	}
	if !reflect.DeepEqual(got, want) {
		gotJSON, _ := json.MarshalIndent(got, "", "  ")
		t.Errorf("%s drifted from golden.\ngot:\n%s\nwant:\n%s", name, gotJSON, buf)
	}
}

func TestEquivalenceMLC(t *testing.T) {
	// The paper schemes, plus one placement hybrid: flexFTL-hotcold pins the
	// multi-stream block life cycle (two active fast/slow pairs per chip) the
	// same way. wearAware shares the classify path and differs only in free-
	// block choice, so one placement golden suffices.
	for _, scheme := range append(experiments.Schemes(), "flexFTL-hotcold") {
		for _, prof := range equivWorkloads() {
			name := fmt.Sprintf("%s_%s", scheme, prof.Name)
			t.Run(name, func(t *testing.T) {
				snap := captureMLC(t, scheme, prof)
				checkGolden(t, name, &snap, func() any { return &equivSnapshot{} })
			})
		}
	}
}

func TestEquivalenceNflex(t *testing.T) {
	for _, prof := range equivWorkloads() {
		name := fmt.Sprintf("nflexTLC_%s", prof.Name)
		t.Run(name, func(t *testing.T) {
			snap := captureNflex(t, prof)
			checkGolden(t, name, &snap, func() any { return &nflexSnapshot{} })
		})
	}
}
