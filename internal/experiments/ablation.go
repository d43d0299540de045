package experiments

import (
	"fmt"
	"io"

	"flexftl/internal/ftl"
	"flexftl/internal/workload"
)

// SweepSetup is the setup of the ablation and sensitivity sweeps: the
// evaluation device and 40 000 requests, quick but distinguishable.
func SweepSetup(seed uint64) Setup {
	return Setup{Geometry: EvalGeometry(), Requests: 40000, Seed: seed}
}

// AblationRow is one variant's outcome.
type AblationRow struct {
	Name          string
	IOPS          float64
	PeakMBs       float64
	Erases        int64
	ForegroundGCs int64
	BackupPerWrit float64
	HostLSBShare  float64
}

// AblationResult carries the sweep.
type AblationResult struct {
	Config Setup
	Rows   []AblationRow
}

// RunAblations quantifies flexFTL's design choices (DESIGN.md §5) on the
// bursty Varmail workload: flexFTL with one knob changed at a time, plus the
// registry's hybrid policy combinations — schemes that exist only as Kernel
// configurations (no dedicated package, no paper counterpart).
func RunAblations(s Setup, workers int) (AblationResult, error) {
	flex := s.Cell("flexFTL", workload.Varmail())
	grid := Grid{
		flex.With("flexFTL (paper settings)", func(*Cell) {}),
		flex.With("quota 0.1% (near-FPS)", func(c *Cell) { c.Flex.QuotaFraction = 0.001 }),
		flex.With("quota 100% (unbounded)", func(c *Cell) { c.Flex.QuotaFraction = 1.0 }),
		flex.With("BGC copies via LSB", func(c *Cell) { c.Flex.BGCCopyLSB = true }),
		flex.With("predictive BGC (Section 6)", func(c *Cell) { c.Flex.PredictiveBGC = true }),
		flex.With("cost-benefit GC victims", func(c *Cell) { c.FTL.GC = ftl.GCCostBenefit }),
	}
	for _, name := range Hybrids() {
		grid = append(grid, flex.With(name+" (hybrid)", func(c *Cell) { c.Scheme = name }))
	}
	res := AblationResult{Config: s}
	runs, err := RunGrid(grid, workers)
	if err != nil {
		return res, err
	}
	for i, run := range runs {
		st := run.Stats
		row := AblationRow{
			Name:          grid[i].Label,
			IOPS:          run.Metrics.IOPS,
			PeakMBs:       run.Metrics.PeakWriteBandwidthMBs,
			Erases:        st.Erases,
			ForegroundGCs: st.ForegroundGCs,
		}
		if st.HostWrites > 0 {
			row.BackupPerWrit = float64(st.BackupWrites) / float64(st.HostWrites)
			row.HostLSBShare = float64(st.HostWritesLSB) / float64(st.HostWrites)
		}
		res.Rows = append(res.Rows, row)
	}
	return res, nil
}

// RenderAblations prints the sweep.
func RenderAblations(w io.Writer, res AblationResult) {
	fmt.Fprintf(w, "flexFTL design-choice ablations (Varmail, %d requests)\n", res.Config.Requests)
	fmt.Fprintf(w, "  %-28s %8s %9s %8s %7s %10s %9s\n",
		"variant", "IOPS", "peakMB/s", "erases", "fg GCs", "backup/wr", "LSB share")
	for _, r := range res.Rows {
		fmt.Fprintf(w, "  %-28s %8.0f %9.1f %8d %7d %10.4f %9.2f\n",
			r.Name, r.IOPS, r.PeakMBs, r.Erases, r.ForegroundGCs, r.BackupPerWrit, r.HostLSBShare)
	}
}

// The placement sweep is the fourth-axis counterpart of the ablations: the
// same policy stack with only the placement axis changed, swept over Zipf
// skews, at a geometry small enough that every run reaches GC steady state.

// PlacementSchemes are the registry names the placement sweep compares, in
// report order: each family's stock scheme precedes its placement variants
// so the renderer can compute deltas.
func PlacementSchemes() []string {
	return []string{
		"flexFTL", "flexFTL-hotcold", "flexFTL-wearAware",
		"pageFTL", "pageFTL-hotcold", "pageFTL-wearAware",
	}
}

// placementThetas are the Zipf skews the placement sweep runs under
// (workload.ZipfProfile): a moderate and a hot-head skew.
var placementThetas = []float64{0.95, 1.1, 1.2}

// placementOP is the over-provisioning the whole placement sweep runs at.
// Placement policies pin extra captive blocks (a second active fast/slow pair
// per chip), so the sweep needs honest spare capacity: at the default 12.5%
// on the shrunken device the captive overhead alone collapses effective OP
// and every multi-stream scheme thrashes, drowning the signal.
const placementOP = 0.25

// PlacementSetup is the placement sweep's setup for a Figure 8 request
// count: the evaluation device shrunk to 32 blocks per chip, so the runs
// reach GC steady state (on the full device the free-block reserve absorbs
// the whole run and WAF pins at ~1), and 4/5 of the requests, at least 10k,
// because wear spread, a max/mean statistic, needs mean erase counts well
// past the prefill transient.
func PlacementSetup(fig8Requests int, seed uint64) Setup {
	g := EvalGeometry()
	g.BlocksPerChip = 32
	return Setup{Geometry: g, Requests: max(fig8Requests*4/5, 10000), Seed: seed}
}

// PlacementRow is one (scheme, theta) outcome.
type PlacementRow struct {
	Scheme     string
	Theta      float64
	WAF        float64
	WearSpread float64 // max/mean erase count (1.0 = perfectly level)
	Erases     int64   // lifetime proxy: media erases for the fixed request count
	GCCopies   int64
	HotShare   float64 // hot-stream share of host writes (0 for single-stream)
	IOPS       float64
}

// PlacementSweepResult carries the sweep.
type PlacementSweepResult struct {
	Config Setup
	Rows   []PlacementRow
}

// RunPlacementSweep runs every placement scheme under every Zipf skew.
func RunPlacementSweep(s Setup, workers int) (PlacementSweepResult, error) {
	res := PlacementSweepResult{Config: s}
	var grid Grid
	for _, theta := range placementThetas {
		for _, scheme := range PlacementSchemes() {
			c := s.Cell(scheme, workload.ZipfProfile(theta))
			c.FTL.OPFraction = placementOP
			grid = append(grid, c)
		}
	}
	runs, err := RunGrid(grid, workers)
	if err != nil {
		return res, err
	}
	for i, run := range runs {
		st := run.Stats
		row := PlacementRow{
			Scheme:     grid[i].Scheme,
			Theta:      grid[i].Profile.ZipfTheta,
			WAF:        run.WAF,
			WearSpread: run.WearSpread,
			Erases:     st.Erases,
			GCCopies:   st.GCCopies,
			IOPS:       run.Metrics.IOPS,
		}
		if hot := st.HostWritesHot + st.HostWritesCold; hot > 0 {
			row.HotShare = float64(st.HostWritesHot) / float64(hot)
		}
		res.Rows = append(res.Rows, row)
	}
	return res, nil
}

// RenderPlacementSweep prints the sweep with per-family deltas: each row's
// WAF and wear spread are compared against the most recent preceding
// single-stream scheme of the same skew (the family's stock baseline).
func RenderPlacementSweep(w io.Writer, res PlacementSweepResult) {
	fmt.Fprintf(w, "placement-axis sweep (Zipf workloads, %d requests, OP %.0f%%)\n",
		res.Config.Requests, placementOP*100)
	fmt.Fprintf(w, "  %-20s %6s %7s %8s %8s %8s %8s %6s %8s\n",
		"scheme", "theta", "WAF", "dWAF%", "wear", "dwear%", "erases", "hot%", "IOPS")
	var baseWAF, baseWear float64
	for _, r := range res.Rows {
		spec, _ := ftl.Lookup(r.Scheme)
		if spec.Placement == "" {
			baseWAF, baseWear = r.WAF, r.WearSpread
		}
		dWAF, dWear := "-", "-"
		if spec.Placement != "" && baseWAF > 0 && baseWear > 0 {
			dWAF = fmt.Sprintf("%+.1f", (r.WAF/baseWAF-1)*100)
			dWear = fmt.Sprintf("%+.1f", (r.WearSpread/baseWear-1)*100)
		}
		fmt.Fprintf(w, "  %-20s %6.2f %7.3f %8s %8.3f %8s %8d %6.1f %8.0f\n",
			r.Scheme, r.Theta, r.WAF, dWAF, r.WearSpread, dWear, r.Erases, r.HotShare*100, r.IOPS)
	}
}
