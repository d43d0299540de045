package experiments

import (
	"flexftl/internal/metrics"
	"flexftl/internal/ssd"
	"flexftl/internal/workload"
)

// Fig8Cell is one (scheme, workload) measurement.
type Fig8Cell struct {
	Scheme   string
	Workload string
	Result   ssd.RunResult
	// NormIOPS and NormErases are relative to pageFTL on the same
	// workload, the presentation of Figures 8(a) and 8(b); 0 where pageFTL's
	// own value is 0 and the ratio is undefined.
	NormIOPS   float64
	NormErases float64
}

// Fig8Result is the full matrix plus the Varmail bandwidth CDFs of
// Figure 8(c).
type Fig8Result struct {
	Config    Setup
	Workloads []string
	Schemes   []string
	Cells     map[string]map[string]*Fig8Cell // scheme -> workload -> cell
}

// Cell returns one measurement.
func (r Fig8Result) Cell(scheme, wl string) *Fig8Cell { return r.Cells[scheme][wl] }

// Average returns a scheme's value of a cell averaged over the workloads
// (the "Average" group of Figures 8(a) and 8(b)).
func (r Fig8Result) Average(scheme string, value func(*Fig8Cell) float64) float64 {
	sum := 0.0
	for _, wl := range r.Workloads {
		sum += value(r.Cells[scheme][wl])
	}
	return sum / float64(len(r.Workloads))
}

// normIOPS and normErases select a cell's Figure 8(a) and 8(b) values, as
// NormIOPS and NormErases but NaN or Inf where the baseline's value is 0, so
// that an undefined ratio prints as n/a rather than as 0.
func (r Fig8Result) normIOPS(c *Fig8Cell) float64 {
	return c.Result.Metrics.IOPS / r.Cells[Baseline][c.Workload].Result.Metrics.IOPS
}

func (r Fig8Result) normErases(c *Fig8Cell) float64 {
	return float64(c.Result.Stats.Erases) / float64(r.Cells[Baseline][c.Workload].Result.Stats.Erases)
}

// VarmailCDF returns the Figure 8(c) write-bandwidth distribution of a
// scheme under Varmail.
func (r Fig8Result) VarmailCDF(scheme string) *metrics.Result {
	m := r.Cells[scheme]["Varmail"].Result.Metrics
	return &m
}

// RunFig8 executes the main evaluation (Figures 8(a), 8(b), 8(c)): the
// four MLC FTLs across the five Table 1 workloads, normalized against
// pageFTL.
func RunFig8(s Setup, workers int) (Fig8Result, error) {
	res := Fig8Result{
		Config:  s,
		Schemes: Schemes(),
		Cells:   make(map[string]map[string]*Fig8Cell),
	}
	profiles := workload.All()
	for _, p := range profiles {
		res.Workloads = append(res.Workloads, p.Name)
	}
	var grid Grid
	for _, scheme := range res.Schemes {
		res.Cells[scheme] = make(map[string]*Fig8Cell)
		for _, p := range profiles {
			grid = append(grid, s.Cell(scheme, p))
		}
	}
	runs, err := RunGrid(grid, workers)
	if err != nil {
		return res, err
	}
	for i, c := range grid {
		res.Cells[c.Scheme][c.Profile.Name] = &Fig8Cell{Scheme: c.Scheme, Workload: c.Profile.Name, Result: runs[i]}
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
