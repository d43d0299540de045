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

// Ablations quantify flexFTL's design choices (DESIGN.md §5) by re-running
// the bursty Varmail workload with one knob changed at a time.

// AblationConfig parameterizes the sweep.
type AblationConfig struct {
	Geometry nand.Geometry
	Requests int
	Seed     uint64
	// Workers bounds the variant fan-out (0 = all cores, 1 = serial);
	// each variant is self-contained, so results are worker-count
	// independent.
	Workers int
}

// DefaultAblationConfig keeps the sweep quick but distinguishable.
func DefaultAblationConfig() AblationConfig {
	return AblationConfig{Geometry: EvalGeometry(), Requests: 40000, Seed: 42}
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
	Config AblationConfig
	Rows   []AblationRow
}

// RunAblations executes the variant sweep: flexFTL with one knob changed at
// a time, plus the registry's hybrid policy combinations — schemes that exist
// only as Kernel configurations (no dedicated package, no paper counterpart).
func RunAblations(cfg AblationConfig) (AblationResult, error) {
	type variant struct {
		name  string
		build func() (ftl.FTL, error)
	}
	flexVariant := func(mutate func(*ftl.FlexParams, *ftl.Config)) func() (ftl.FTL, error) {
		return func() (ftl.FTL, error) {
			params := ftl.DefaultFlexParams()
			ftlCfg := ftl.DefaultConfig()
			mutate(&params, &ftlCfg)
			return ftl.BuildFTL("flexFTL", ftl.BuildEnv{Geometry: cfg.Geometry, Config: ftlCfg, Flex: params})
		}
	}
	variants := []variant{
		{"flexFTL (paper settings)", flexVariant(func(p *ftl.FlexParams, c *ftl.Config) {})},
		{"quota 0.1% (near-FPS)", flexVariant(func(p *ftl.FlexParams, c *ftl.Config) { p.QuotaFraction = 0.001 })},
		{"quota 100% (unbounded)", flexVariant(func(p *ftl.FlexParams, c *ftl.Config) { p.QuotaFraction = 1.0 })},
		{"BGC copies via LSB", flexVariant(func(p *ftl.FlexParams, c *ftl.Config) { p.BGCCopyLSB = true })},
		{"predictive BGC (Section 6)", flexVariant(func(p *ftl.FlexParams, c *ftl.Config) { p.PredictiveBGC = true })},
		{"cost-benefit GC victims", flexVariant(func(p *ftl.FlexParams, c *ftl.Config) { c.GC = ftl.GCCostBenefit })},
	}
	for _, name := range Hybrids() {
		scheme := name
		variants = append(variants, variant{
			name:  scheme + " (hybrid)",
			build: func() (ftl.FTL, error) { return BuildFTL(scheme, cfg.Geometry) },
		})
	}
	res := AblationResult{Config: cfg}
	prof := workload.Varmail()
	rows := make([]AblationRow, len(variants))
	err := par.Run(par.Workers(cfg.Workers), len(variants), func(_, i int) error {
		v := variants[i]
		f, err := v.build()
		if err != nil {
			return err
		}
		run, err := simulate(f, ssd.DefaultConfig(), func(space int64) (workload.Generator, error) {
			return workload.New(prof, space, cfg.Requests, cfg.Seed)
		})
		if err != nil {
			return fmt.Errorf("ablation %q: %w", v.name, err)
		}
		st := run.Stats
		row := AblationRow{
			Name:          v.name,
			IOPS:          run.Metrics.IOPS,
			PeakMBs:       run.Metrics.PeakWriteBandwidthMBs,
			Erases:        st.Erases,
			ForegroundGCs: st.ForegroundGCs,
		}
		if st.HostWrites > 0 {
			row.BackupPerWrit = float64(st.BackupWrites) / float64(st.HostWrites)
			row.HostLSBShare = float64(st.HostWritesLSB) / float64(st.HostWrites)
		}
		rows[i] = row
		return nil
	})
	if err != nil {
		return res, err
	}
	res.Rows = rows
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

// PlacementSweepConfig parameterizes the placement-axis sweep.
type PlacementSweepConfig struct {
	Geometry nand.Geometry
	Requests int
	Seed     uint64
	// OPFraction is the over-provisioning the whole sweep runs at. Placement
	// policies pin extra captive blocks (a second active fast/slow pair per
	// chip), so the sweep needs honest spare capacity: at the default 12.5%
	// on the shrunken device the captive overhead alone collapses effective
	// OP and every multi-stream scheme thrashes, drowning the signal.
	OPFraction float64
	// Thetas are the Zipf skews swept (workload.ZipfProfile).
	Thetas []float64
	// Schemes are the registry names compared; order is report order and
	// each family's stock scheme should precede its placement variants so
	// the renderer can compute deltas.
	Schemes []string
	Workers int
}

// DefaultPlacementSweepConfig compares the stock schemes against their
// hot/cold and wear-aware variants under a moderate and a hot-head skew.
// The device is shrunk (fewer blocks per chip) so the runs reach GC steady
// state — on the full evaluation geometry the free-block reserve would
// absorb the whole run and WAF would pin at ~1 for every scheme.
func DefaultPlacementSweepConfig() PlacementSweepConfig {
	g := EvalGeometry()
	g.BlocksPerChip = 32
	return PlacementSweepConfig{
		Geometry: g,
		// 120k requests: wear-spread is a max/mean statistic and needs mean
		// erase counts well past the prefill transient before scheme
		// comparisons are out of the noise; shorter runs reorder the wear
		// column run-to-run.
		Requests:   120000,
		Seed:       42,
		OPFraction: 0.25,
		Thetas:     []float64{0.95, 1.1, 1.2},
		Schemes: []string{
			"flexFTL", "flexFTL-hotcold", "flexFTL-wearAware",
			"pageFTL", "pageFTL-hotcold", "pageFTL-wearAware",
		},
	}
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
	Config PlacementSweepConfig
	Rows   []PlacementRow
}

// RunPlacementSweep runs every configured scheme under every Zipf skew.
func RunPlacementSweep(cfg PlacementSweepConfig) (PlacementSweepResult, error) {
	res := PlacementSweepResult{Config: cfg}
	type cell struct {
		scheme string
		theta  float64
	}
	var cells []cell
	for _, theta := range cfg.Thetas {
		for _, scheme := range cfg.Schemes {
			cells = append(cells, cell{scheme, theta})
		}
	}
	rows := make([]PlacementRow, len(cells))
	err := par.Run(par.Workers(cfg.Workers), len(cells), func(_, i int) error {
		c := cells[i]
		fcfg := ftl.DefaultConfig()
		if cfg.OPFraction > 0 {
			fcfg.OPFraction = cfg.OPFraction
		}
		f, err := BuildFTLWith(c.scheme, cfg.Geometry, fcfg)
		if err != nil {
			return err
		}
		run, err := simulate(f, ssd.DefaultConfig(), func(space int64) (workload.Generator, error) {
			return workload.NewZipf(c.theta, space, cfg.Requests, cfg.Seed)
		})
		if err != nil {
			return fmt.Errorf("placement %q theta=%.2f: %w", c.scheme, c.theta, err)
		}
		st := run.Stats
		row := PlacementRow{
			Scheme:     c.scheme,
			Theta:      c.theta,
			WAF:        run.WAF,
			WearSpread: run.WearSpread,
			Erases:     st.Erases,
			GCCopies:   st.GCCopies,
			IOPS:       run.Metrics.IOPS,
		}
		if hot := st.HostWritesHot + st.HostWritesCold; hot > 0 {
			row.HotShare = float64(st.HostWritesHot) / float64(hot)
		}
		rows[i] = row
		return nil
	})
	if err != nil {
		return res, err
	}
	res.Rows = rows
	return res, nil
}

// RenderPlacementSweep prints the sweep with per-family deltas: each row's
// WAF and wear spread are compared against the most recent preceding
// single-stream scheme of the same skew (the family's stock baseline).
func RenderPlacementSweep(w io.Writer, res PlacementSweepResult) {
	fmt.Fprintf(w, "placement-axis sweep (Zipf workloads, %d requests, OP %.0f%%)\n",
		res.Config.Requests, res.Config.OPFraction*100)
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
