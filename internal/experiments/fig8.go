package experiments

import (
	"fmt"

	"flexftl/internal/metrics"
	"flexftl/internal/nand"
	"flexftl/internal/par"
	"flexftl/internal/ssd"
	"flexftl/internal/workload"
)

// Fig8Config parameterizes the main evaluation (Figures 8(a), 8(b), 8(c)):
// four MLC FTLs across the five Table 1 workloads.
type Fig8Config struct {
	Geometry nand.Geometry
	Requests int    // host requests per run
	Seed     uint64 // workload seed (same trace for every FTL)
	// Workers bounds how many of the 20 simulations run at once
	// (0 = all cores, 1 = serial); each simulation is self-contained, so
	// the matrix is identical for any value.
	Workers int
}

// Fig8Cell is one (scheme, workload) measurement.
type Fig8Cell struct {
	Scheme   string
	Workload string
	Result   ssd.RunResult
	// NormIOPS and NormErases are relative to pageFTL on the same
	// workload, the presentation of Figures 8(a) and 8(b).
	NormIOPS   float64
	NormErases float64
}

// Fig8Result is the full matrix plus the Varmail bandwidth CDFs of
// Figure 8(c).
type Fig8Result struct {
	Config    Fig8Config
	Workloads []string
	Schemes   []string
	Cells     map[string]map[string]*Fig8Cell // scheme -> workload -> cell
}

// Cell returns one measurement.
func (r Fig8Result) Cell(scheme, wl string) *Fig8Cell { return r.Cells[scheme][wl] }

// AverageNormIOPS returns a scheme's normalized IOPS averaged over the five
// workloads (the "Average" group of Figure 8(a)).
func (r Fig8Result) AverageNormIOPS(scheme string) float64 {
	sum := 0.0
	for _, wl := range r.Workloads {
		sum += r.Cells[scheme][wl].NormIOPS
	}
	return sum / float64(len(r.Workloads))
}

// AverageNormErases returns a scheme's normalized erase count averaged over
// the workloads (Figure 8(b)'s "Average").
func (r Fig8Result) AverageNormErases(scheme string) float64 {
	sum := 0.0
	for _, wl := range r.Workloads {
		sum += r.Cells[scheme][wl].NormErases
	}
	return sum / float64(len(r.Workloads))
}

// VarmailCDF returns the Figure 8(c) write-bandwidth distribution of a
// scheme under Varmail.
func (r Fig8Result) VarmailCDF(scheme string) *metrics.Result {
	m := r.Cells[scheme]["Varmail"].Result.Metrics
	return &m
}

// runOne executes a single (scheme, workload) simulation.
func runOne(cfg Fig8Config, scheme string, prof workload.Profile) (*Fig8Cell, error) {
	f, err := BuildFTL(scheme, cfg.Geometry)
	if err != nil {
		return nil, err
	}
	res, err := simulate(f, ssd.DefaultConfig(), func(space int64) (workload.Generator, error) {
		return workload.New(prof, space, cfg.Requests, cfg.Seed)
	})
	if err != nil {
		return nil, fmt.Errorf("%s/%s: %w", scheme, prof.Name, err)
	}
	return &Fig8Cell{Scheme: scheme, Workload: prof.Name, Result: res}, nil
}

// RunFig8 executes the 4x5 evaluation matrix and normalizes against
// pageFTL.
func RunFig8(cfg Fig8Config) (Fig8Result, error) {
	profiles := workload.All()
	res := Fig8Result{
		Config:  cfg,
		Schemes: Schemes(),
		Cells:   make(map[string]map[string]*Fig8Cell),
	}
	for _, p := range profiles {
		res.Workloads = append(res.Workloads, p.Name)
	}
	for _, s := range res.Schemes {
		res.Cells[s] = make(map[string]*Fig8Cell)
	}

	type job struct {
		scheme string
		prof   workload.Profile
	}
	var jobs []job
	for _, s := range res.Schemes {
		for _, p := range profiles {
			jobs = append(jobs, job{s, p})
		}
	}

	cells := make([]*Fig8Cell, len(jobs))
	err := par.Run(par.Workers(cfg.Workers), len(jobs), func(_, i int) error {
		c, err := runOne(cfg, jobs[i].scheme, jobs[i].prof)
		if err != nil {
			return err
		}
		cells[i] = c
		return nil
	})
	if err != nil {
		return res, err
	}
	for _, c := range cells {
		res.Cells[c.Scheme][c.Workload] = c
	}

	// Normalize to the baseline per workload.
	for _, wl := range res.Workloads {
		base := res.Cells[Baseline][wl]
		for _, s := range res.Schemes {
			c := res.Cells[s][wl]
			if base.Result.Metrics.IOPS > 0 {
				c.NormIOPS = c.Result.Metrics.IOPS / base.Result.Metrics.IOPS
			}
			if base.Result.Stats.Erases > 0 {
				c.NormErases = float64(c.Result.Stats.Erases) / float64(base.Result.Stats.Erases)
			}
		}
	}
	return res, nil
}
