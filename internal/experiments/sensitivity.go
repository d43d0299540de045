package experiments

import (
	"fmt"
	"io"

	"flexftl/internal/ftl"
	"flexftl/internal/nand"
	"flexftl/internal/par"
	"flexftl/internal/ssd"
	"flexftl/internal/workload"
)

// Sensitivity sweeps: how flexFTL's advantage over the baseline responds to
// the two environment knobs the paper fixes implicitly — over-provisioning
// (GC pressure) and the write-buffer size (the u-threshold operating
// point). Both sweeps run flexFTL and pageFTL on the same Varmail trace.

// SensitivityPoint is one sweep setting's outcome.
type SensitivityPoint struct {
	Setting   string
	FlexIOPS  float64
	PageIOPS  float64
	FlexWA    float64
	PageWA    float64
	FlexPeak  float64
	Advantage float64 // FlexIOPS / PageIOPS
}

// SensitivityConfig parameterizes the sweeps.
type SensitivityConfig struct {
	Geometry nand.Geometry
	Requests int
	Seed     uint64
	// OPFractions to sweep (buffer fixed at the default).
	OPFractions []float64
	// BufferSizes to sweep (OP fixed at the default).
	BufferSizes []int
	// Workers bounds the sweep fan-out (0 = all cores, 1 = serial); each
	// point builds its own devices, so results are worker-count
	// independent.
	Workers int
}

// DefaultSensitivityConfig covers the interesting ranges.
func DefaultSensitivityConfig() SensitivityConfig {
	return SensitivityConfig{
		Geometry:    EvalGeometry(),
		Requests:    40000,
		Seed:        42,
		OPFractions: []float64{0.07, 0.125, 0.25},
		BufferSizes: []int{32, 128, 512},
	}
}

// SensitivityResult carries both sweeps.
type SensitivityResult struct {
	Config SensitivityConfig
	OP     []SensitivityPoint
	Buffer []SensitivityPoint
}

func runPair(g nand.Geometry, requests int, seed uint64, ftlCfg ftl.Config, runCfg ssd.Config) (flexR, pageR ssd.RunResult, err error) {
	build := func(scheme string) (ssd.RunResult, error) {
		f, err := BuildFTLWith(scheme, g, ftlCfg)
		if err != nil {
			return ssd.RunResult{}, err
		}
		return simulate(f, runCfg, func(space int64) (workload.Generator, error) {
			return workload.New(workload.Varmail(), space, requests, seed)
		})
	}
	flexR, err = build("flexFTL")
	if err != nil {
		return
	}
	pageR, err = build("pageFTL")
	return
}

func toPoint(setting string, flexR, pageR ssd.RunResult) SensitivityPoint {
	p := SensitivityPoint{
		Setting:  setting,
		FlexIOPS: flexR.Metrics.IOPS,
		PageIOPS: pageR.Metrics.IOPS,
		FlexWA:   flexR.Stats.WriteAmplification(),
		PageWA:   pageR.Stats.WriteAmplification(),
		FlexPeak: flexR.Metrics.PeakWriteBandwidthMBs,
	}
	if p.PageIOPS > 0 {
		p.Advantage = p.FlexIOPS / p.PageIOPS
	}
	return p
}

// RunSensitivity executes both sweeps. Every sweep point is one task in
// the shared pool — each builds its own devices and FTLs, so points run
// concurrently without sharing state.
func RunSensitivity(cfg SensitivityConfig) (SensitivityResult, error) {
	res := SensitivityResult{Config: cfg}
	type sweepTask struct {
		setting string
		wrap    string // error-message prefix
		ftlCfg  ftl.Config
		runCfg  ssd.Config
	}
	var tasks []sweepTask
	for _, op := range cfg.OPFractions {
		ftlCfg := ftl.DefaultConfig()
		ftlCfg.OPFraction = op
		tasks = append(tasks, sweepTask{
			setting: fmt.Sprintf("OP %.1f%%", 100*op),
			wrap:    fmt.Sprintf("OP sweep %.3f", op),
			ftlCfg:  ftlCfg,
			runCfg:  ssd.DefaultConfig(),
		})
	}
	for _, buf := range cfg.BufferSizes {
		runCfg := ssd.DefaultConfig()
		runCfg.BufferPages = buf
		tasks = append(tasks, sweepTask{
			setting: fmt.Sprintf("buffer %d pages", buf),
			wrap:    fmt.Sprintf("buffer sweep %d", buf),
			ftlCfg:  ftl.DefaultConfig(),
			runCfg:  runCfg,
		})
	}
	points := make([]SensitivityPoint, len(tasks))
	err := par.Run(par.Workers(cfg.Workers), len(tasks), func(_, i int) error {
		t := tasks[i]
		flexR, pageR, err := runPair(cfg.Geometry, cfg.Requests, cfg.Seed, t.ftlCfg, t.runCfg)
		if err != nil {
			return fmt.Errorf("%s: %w", t.wrap, err)
		}
		points[i] = toPoint(t.setting, flexR, pageR)
		return nil
	})
	if err != nil {
		return res, err
	}
	res.OP = points[:len(cfg.OPFractions)]
	res.Buffer = points[len(cfg.OPFractions):]
	return res, nil
}

// RenderSensitivity prints both sweeps.
func RenderSensitivity(w io.Writer, res SensitivityResult) {
	fmt.Fprintf(w, "Sensitivity of flexFTL's advantage (Varmail, %d requests)\n", res.Config.Requests)
	print := func(title string, pts []SensitivityPoint) {
		fmt.Fprintln(w, title)
		fmt.Fprintf(w, "  %-18s %10s %10s %8s %8s %9s %10s\n",
			"setting", "flex IOPS", "page IOPS", "flexWA", "pageWA", "flexPeak", "advantage")
		for _, p := range pts {
			fmt.Fprintf(w, "  %-18s %10.0f %10.0f %8.2f %8.2f %9.1f %9.2fx\n",
				p.Setting, p.FlexIOPS, p.PageIOPS, p.FlexWA, p.PageWA, p.FlexPeak, p.Advantage)
		}
	}
	print("(a) over-provisioning (GC pressure):", res.OP)
	print("(b) write-buffer size (the u-threshold operating point):", res.Buffer)
}
