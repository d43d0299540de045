package experiments

import (
	"reflect"
	"strings"
	"testing"

	"flexftl/internal/nand"
	"flexftl/internal/workload"
)

// tinySetup keeps unit tests fast: the trends it asserts are the paper's
// coarse directional claims, not exact magnitudes.
func tinySetup() Setup {
	return Setup{
		Geometry: nand.Geometry{
			Channels: 2, ChipsPerChannel: 2, BlocksPerChip: 64,
			WordLinesPerBlock: 16, PageSizeBytes: 4096, SpareBytes: 64,
		},
		Requests: 8000,
		Seed:     7,
	}
}

func TestBuildFTL(t *testing.T) {
	g := nand.TestGeometry()
	for _, s := range Schemes() {
		f, err := BuildFTL(s, g)
		if err != nil {
			t.Fatalf("%s: %v", s, err)
		}
		if f.Name() != s {
			t.Errorf("built %q, want %q", f.Name(), s)
		}
		wantRules := "FPS"
		if s == "flexFTL" {
			wantRules = "RPS"
		}
		if got := f.Device().Rules().Name(); got != wantRules {
			t.Errorf("%s device rules = %s, want %s", s, got, wantRules)
		}
	}
	if _, err := BuildFTL("nopeFTL", g); err == nil {
		t.Error("unknown scheme accepted")
	}
}

func TestEvalGeometryValid(t *testing.T) {
	if err := EvalGeometry().Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestRunTable1(t *testing.T) {
	rows, err := RunTable1(100000, 5000, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 5 {
		t.Fatalf("rows = %d", len(rows))
	}
	var sb strings.Builder
	RenderTable1(&sb, rows)
	for _, name := range []string{"OLTP", "NTRX", "Webserver", "Varmail", "Fileserver"} {
		if !strings.Contains(sb.String(), name) {
			t.Errorf("rendered table missing %s", name)
		}
	}
}

func TestRenderFig1Distributions(t *testing.T) {
	var sb strings.Builder
	if err := RenderFig1Distributions(&sb, 3); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{"fresh", "3K P/E", "E(11)", "P3(10)", "read references"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q", want)
		}
	}
}

func TestRunFig4Small(t *testing.T) {
	cfg := VthConfig{Blocks: 4, WordLines: 16, Cells: 512, Seed: 5}
	res, err := RunFig4(cfg, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 4 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	byName := map[string]Fig4Row{}
	for _, r := range res.Rows {
		byName[r.Order] = r
		if r.Pages != cfg.Blocks*cfg.WordLines {
			t.Errorf("%s sampled %d pages, want %d", r.Order, r.Pages, cfg.Blocks*cfg.WordLines)
		}
	}
	// Figure 4(a): RPS orders do not widen distributions beyond FPS.
	fps := byName["FPS"]
	for _, name := range []string{"RPSfull", "RPShalf"} {
		if byName[name].WP.Median > fps.WP.Median*1.05 {
			t.Errorf("%s median WPi %.3f above FPS %.3f", name, byName[name].WP.Median, fps.WP.Median)
		}
	}
	// The forbidden order is clearly worse in the tail.
	if byName["Unconstrained(worst)"].WP.Max < fps.WP.Max*1.05 {
		t.Errorf("worst-case max WPi %.3f not above FPS %.3f",
			byName["Unconstrained(worst)"].WP.Max, fps.WP.Max)
	}
	// Figure 4(b): BERs at end-of-life are nonzero and comparable FPS/RPS.
	if fps.BER.Median <= 0 {
		t.Error("FPS end-of-life BER is zero; stress model inert")
	}
	for _, name := range []string{"RPSfull", "RPShalf"} {
		if byName[name].BER.Median > fps.BER.Median*1.5 {
			t.Errorf("%s median BER %.2e well above FPS %.2e",
				name, byName[name].BER.Median, fps.BER.Median)
		}
	}
	// The ECC translation: end-of-life page-failure probabilities are
	// defined, and the forbidden order fails at least as often as FPS.
	for _, r := range res.Rows {
		if r.PageFailEOL < 0 || r.PageFailEOL > 1 {
			t.Errorf("%s: page failure prob %v out of range", r.Order, r.PageFailEOL)
		}
	}
	if byName["Unconstrained(worst)"].PageFailEOL < byName["FPS"].PageFailEOL {
		t.Error("forbidden order fails less often than FPS under ECC")
	}
	var sb strings.Builder
	RenderFig4(&sb, res)
	if !strings.Contains(sb.String(), "RPSfull") {
		t.Error("render missing RPSfull")
	}
	if !strings.Contains(sb.String(), "ECC failure") {
		t.Error("render missing ECC failure section")
	}
}

func TestRunFig4TLCSmall(t *testing.T) {
	cfg := VthConfig{Blocks: 3, WordLines: 16, Cells: 512, Seed: 9}
	res, err := RunFig4TLC(cfg, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 3 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	byName := map[string]Fig4Row{}
	for _, r := range res.Rows {
		byName[r.Order] = r
	}
	fixed := byName["Fixed (vendor staircase)"]
	relaxed := byName["Relaxed 3-phase"]
	worst := byName["Unconstrained(worst)"]
	if relaxed.WP.Median > fixed.WP.Median*1.05 {
		t.Errorf("relaxed TLC WPi median %.3f above fixed %.3f", relaxed.WP.Median, fixed.WP.Median)
	}
	if worst.WP.Max < fixed.WP.Max*1.1 {
		t.Errorf("TLC worst-case max WPi %.3f not clearly above fixed %.3f", worst.WP.Max, fixed.WP.Max)
	}
	if fixed.BER.Median <= 0 {
		t.Error("TLC end-of-life BER zero")
	}
	var sb strings.Builder
	RenderFig4TLC(&sb, res)
	if !strings.Contains(sb.String(), "3-phase") {
		t.Error("render missing 3-phase row")
	}
}

func TestRunFig8Tiny(t *testing.T) {
	if testing.Short() {
		t.Skip("fig8 matrix in -short mode")
	}
	res, err := RunFig8(tinySetup(), 0)
	if err != nil {
		t.Fatal(err)
	}
	// Every cell filled, baseline normalized to 1.
	for _, s := range res.Schemes {
		for _, wl := range res.Workloads {
			c := res.Cell(s, wl)
			if c == nil {
				t.Fatalf("missing cell %s/%s", s, wl)
			}
			if c.Result.Metrics.Requests == 0 {
				t.Errorf("%s/%s ran no requests", s, wl)
			}
		}
	}
	for _, wl := range res.Workloads {
		if got := res.Cell(Baseline, wl).NormIOPS; got != 1.0 {
			t.Errorf("baseline norm IOPS = %v on %s", got, wl)
		}
		if got := res.Cell(Baseline, wl).NormErases; got != 1.0 {
			t.Errorf("baseline norm erases = %v on %s", got, wl)
		}
	}

	// Directional claims of Section 4.2 at tiny scale:
	// (1) flexFTL IOPS beats the backup-burdened FTLs on write-heavy loads.
	for _, wl := range []string{"NTRX", "Varmail", "Fileserver"} {
		flex := res.Cell("flexFTL", wl).NormIOPS
		for _, ref := range []string{"parityFTL"} {
			if flex <= res.Cell(ref, wl).NormIOPS {
				t.Errorf("%s: flexFTL IOPS %.3f <= %s %.3f", wl, flex, ref, res.Cell(ref, wl).NormIOPS)
			}
		}
	}
	// (2) flexFTL erases fewer blocks than parityFTL and rtfFTL on average.
	flexE := res.Average("flexFTL", res.normErases)
	for _, ref := range []string{"parityFTL", "rtfFTL"} {
		if flexE >= res.Average(ref, res.normErases) {
			t.Errorf("flexFTL avg erases %.3f >= %s %.3f", flexE, ref, res.Average(ref, res.normErases))
		}
	}
	// (3) Varmail peak bandwidth: flexFTL highest.
	flexPeak := res.VarmailCDF("flexFTL").PeakWriteBandwidthMBs
	for _, ref := range []string{"pageFTL", "parityFTL", "rtfFTL"} {
		if flexPeak < res.VarmailCDF(ref).PeakWriteBandwidthMBs {
			t.Errorf("flexFTL Varmail peak %.1f below %s %.1f",
				flexPeak, ref, res.VarmailCDF(ref).PeakWriteBandwidthMBs)
		}
	}

	// Rendering exercises every formatter.
	var sb strings.Builder
	RenderFig8a(&sb, res)
	RenderFig8b(&sb, res)
	RenderFig8c(&sb, res)
	RenderFig8Summary(&sb, res)
	RenderFig1(&sb, nand.DefaultTiming())
	Rule(&sb, "done")
	out := sb.String()
	for _, frag := range []string{"Figure 8(a)", "Figure 8(b)", "Figure 8(c)", "flexFTL", "peak"} {
		if !strings.Contains(out, frag) {
			t.Errorf("render output missing %q", frag)
		}
	}
}

// TestFig8ShapeAcrossSeeds: the directional claims must not hinge on one
// lucky seed — the orderings that matter hold for several.
func TestFig8ShapeAcrossSeeds(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-seed fig8 in -short mode")
	}
	for _, seed := range []uint64{7, 99, 12345} {
		s := tinySetup()
		s.Seed = seed
		res, err := RunFig8(s, 0)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		// Lifetime ordering: flexFTL erases fewer than the per-write backup
		// schemes on the write-heavy workloads.
		for _, wl := range []string{"NTRX", "Varmail", "Fileserver"} {
			flex := res.Cell("flexFTL", wl).NormErases
			if par := res.Cell("parityFTL", wl).NormErases; flex >= par {
				t.Errorf("seed %d %s: flexFTL erases %.2f >= parityFTL %.2f", seed, wl, flex, par)
			}
		}
		// Performance ordering: flexFTL at or above parityFTL everywhere.
		for _, wl := range res.Workloads {
			flex := res.Cell("flexFTL", wl).NormIOPS
			if par := res.Cell("parityFTL", wl).NormIOPS; flex < par*0.98 {
				t.Errorf("seed %d %s: flexFTL IOPS %.3f below parityFTL %.3f", seed, wl, flex, par)
			}
		}
		// flexFTL never collapses against the baseline.
		for _, wl := range res.Workloads {
			if flex := res.Cell("flexFTL", wl).NormIOPS; flex < 0.85 {
				t.Errorf("seed %d %s: flexFTL at %.3f of pageFTL", seed, wl, flex)
			}
		}
	}
}

func TestRunSensitivitySmall(t *testing.T) {
	if testing.Short() {
		t.Skip("sensitivity sweep in -short mode")
	}
	res, err := RunSensitivity(Setup{Geometry: tinySetup().Geometry, Requests: 4000, Seed: 3}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.OP) != len(sensitivityOPs) || len(res.Buffer) != len(sensitivityBuffers) {
		t.Fatalf("points: OP %d, buffer %d", len(res.OP), len(res.Buffer))
	}
	for _, p := range append(append([]SensitivityPoint{}, res.OP...), res.Buffer...) {
		if p.FlexIOPS <= 0 || p.PageIOPS <= 0 || p.Advantage <= 0 {
			t.Errorf("%s: degenerate point %+v", p.Setting, p)
		}
	}
	// Lower OP = more GC pressure = higher WA for both.
	for i := 1; i < len(res.OP); i++ {
		if res.OP[i-1].FlexWA < res.OP[i].FlexWA {
			t.Errorf("WA not decreasing with OP: %.2f -> %.2f", res.OP[i-1].FlexWA, res.OP[i].FlexWA)
		}
	}
	var sb strings.Builder
	RenderSensitivity(&sb, res)
	if !strings.Contains(sb.String(), "over-provisioning") {
		t.Error("render incomplete")
	}
}

func TestRunStressSweepSmall(t *testing.T) {
	pts, err := RunStressSweep(VthConfig{Blocks: 3, WordLines: 16, Cells: 512, Seed: 3}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != len(stressCycles) {
		t.Fatalf("points = %d", len(pts))
	}
	// BER grows with wear for both orders.
	for _, name := range []string{"FPS", "RPSfull"} {
		prev := -1.0
		for _, p := range pts {
			if p.MedianBER[name] < prev {
				t.Errorf("%s BER not monotone at %d cycles", name, p.PECycles)
			}
			prev = p.MedianBER[name]
			if p.PageFail[name] < 0 || p.PageFail[name] > 1 {
				t.Errorf("%s Pfail out of range: %v", name, p.PageFail[name])
			}
		}
	}
	// Fresh devices read clean; worn-out ones do not.
	if pts[0].MedianBER["FPS"] != 0 {
		t.Errorf("fresh median BER = %v", pts[0].MedianBER["FPS"])
	}
	if last := pts[len(pts)-1]; last.MedianBER["FPS"] == 0 {
		t.Errorf("%d-cycle median BER still zero", last.PECycles)
	}
	var sb strings.Builder
	RenderStressSweep(&sb, pts)
	if !strings.Contains(sb.String(), "P/E") {
		t.Error("render incomplete")
	}
}

// TestVthStudiesRejectEmptyConfigs: the three Monte-Carlo studies share one
// driver, which refuses a study with nothing to simulate instead of
// summarizing empty series.
func TestVthStudiesRejectEmptyConfigs(t *testing.T) {
	for _, c := range []struct {
		name string
		cfg  VthConfig
	}{
		{"no blocks", VthConfig{Blocks: 0, WordLines: 16, Cells: 64}},
		{"negative blocks", VthConfig{Blocks: -1, WordLines: 16, Cells: 64}},
		{"no word lines", VthConfig{Blocks: 2, WordLines: 0, Cells: 64}},
		{"no cells", VthConfig{Blocks: 2, WordLines: 16, Cells: 0}},
	} {
		if _, err := RunStressSweep(c.cfg, 1); err == nil {
			t.Errorf("stress sweep with %s accepted", c.name)
		}
		if _, err := RunFig4(c.cfg, 1); err == nil {
			t.Errorf("fig4 with %s accepted", c.name)
		}
		if _, err := RunFig4TLC(c.cfg, 1); err == nil {
			t.Errorf("fig4tlc with %s accepted", c.name)
		}
	}
}

// TestRunGridNamesFailingCell: a cell that cannot be built fails the grid
// with an error naming the cell, whichever worker ran it.
func TestRunGridNamesFailingCell(t *testing.T) {
	s := Setup{Geometry: tinySetup().Geometry, Requests: 200, Seed: 1}
	bad := s.Cell("nopeFTL", workload.Varmail())
	bad.Label = "missing scheme"
	for _, workers := range []int{1, 2} {
		_, err := RunGrid(Grid{s.Cell("pageFTL", workload.Varmail()), bad}, workers)
		if err == nil {
			t.Fatalf("workers %d: grid with an unknown scheme ran", workers)
		}
		for _, want := range []string{"cell 1", "missing scheme", "nopeFTL", "Varmail", "seed 1"} {
			if !strings.Contains(err.Error(), want) {
				t.Errorf("workers %d: error %q does not name %q", workers, err, want)
			}
		}
	}
}

func TestRunAblationsSmall(t *testing.T) {
	if testing.Short() {
		t.Skip("ablation sweep in -short mode")
	}
	res, err := RunAblations(Setup{Geometry: tinySetup().Geometry, Requests: 6000, Seed: 5}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if want := 6 + len(Hybrids()); len(res.Rows) != want {
		t.Fatalf("rows = %d, want %d", len(res.Rows), want)
	}
	byName := map[string]AblationRow{}
	for _, r := range res.Rows {
		byName[r.Name] = r
		if r.IOPS <= 0 {
			t.Errorf("%s: zero IOPS", r.Name)
		}
	}
	// The registry's hybrid schemes ride along in the sweep.
	for _, h := range Hybrids() {
		if _, ok := byName[h+" (hybrid)"]; !ok {
			t.Errorf("hybrid %q missing from ablation rows", h)
		}
	}
	base := byName["flexFTL (paper settings)"]
	// A vanishing quota must cut the burst peak (the near-FPS regression).
	if tiny := byName["quota 0.1% (near-FPS)"]; tiny.PeakMBs >= base.PeakMBs {
		t.Errorf("tiny quota peak %.1f not below paper settings %.1f", tiny.PeakMBs, base.PeakMBs)
	}
	// LSB-copying BGC must hurt IOPS (the q-replenishment ablation).
	if lsb := byName["BGC copies via LSB"]; lsb.IOPS >= base.IOPS {
		t.Errorf("LSB-copy BGC IOPS %.0f not below paper settings %.0f", lsb.IOPS, base.IOPS)
	}
	var sb strings.Builder
	RenderAblations(&sb, res)
	if !strings.Contains(sb.String(), "ablations") {
		t.Error("render incomplete")
	}
}

func TestRunFig8Deterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("fig8 determinism in -short mode")
	}
	s := tinySetup()
	s.Requests = 3000
	a, err := RunFig8(s, 8)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunFig8(s, 1) // concurrency must not affect results
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range a.Schemes {
		for _, wl := range a.Workloads {
			ca, cb := a.Cell(s, wl), b.Cell(s, wl)
			if ca.Result.Metrics.IOPS != cb.Result.Metrics.IOPS ||
				ca.Result.Stats != cb.Result.Stats {
				t.Errorf("%s/%s differs between parallel and serial runs", s, wl)
			}
		}
	}
}

// TestRunFig4DeterministicAcrossWorkers: the parallel fan-out must be
// byte-identical to the serial run — every block derives its own seed and
// writes its own result slot.
func TestRunFig4DeterministicAcrossWorkers(t *testing.T) {
	cfg := DefaultFig4Config(2016)
	cfg.Blocks, cfg.WordLines, cfg.Cells = 4, 8, 64
	a, err := RunFig4(cfg, 8)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunFig4(cfg, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Errorf("Fig4 differs between 8 workers and serial:\n%+v\n%+v", a, b)
	}
}

// TestRunFig4TLCDeterministicAcrossWorkers mirrors the MLC check for the
// TLC study.
func TestRunFig4TLCDeterministicAcrossWorkers(t *testing.T) {
	cfg := DefaultFig4TLCConfig(2016)
	cfg.Blocks, cfg.WordLines, cfg.Cells = 3, 8, 64
	a, err := RunFig4TLC(cfg, 8)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunFig4TLC(cfg, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Errorf("Fig4TLC differs between 8 workers and serial:\n%+v\n%+v", a, b)
	}
}

// TestRunStressSweepDeterministicAcrossWorkers: the sweep's ordered task
// grid must make its output worker-count independent.
func TestRunStressSweepDeterministicAcrossWorkers(t *testing.T) {
	cfg := VthConfig{Blocks: 2, WordLines: 8, Cells: 64, Seed: 5}
	a, err := RunStressSweep(cfg, 8)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunStressSweep(cfg, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Errorf("stress sweep differs between 8 workers and serial:\n%+v\n%+v", a, b)
	}
}
