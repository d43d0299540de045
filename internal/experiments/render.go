package experiments

import (
	"fmt"
	"io"
	"math"
	"strings"

	"flexftl/internal/ascii"
	"flexftl/internal/core"
	"flexftl/internal/nand"
	"flexftl/internal/rng"
	"flexftl/internal/stats"
	"flexftl/internal/vth"
)

// RenderFig1 prints the device latency asymmetry behind Figure 1, including
// the effective MSB latency once a copy backup is added (the 5x figure of
// Section 1).
func RenderFig1(w io.Writer, t nand.Timing) {
	fmt.Fprintln(w, "Figure 1 — MLC program latency asymmetry (2X-nm class device)")
	fmt.Fprintf(w, "  LSB page program                : %8v\n", t.ProgLSB)
	fmt.Fprintf(w, "  MSB page program                : %8v  (%.1fx LSB)\n", t.ProgMSB, t.Asymmetry())
	eff := t.ProgMSB + t.Read + t.ProgLSB // copy backup: read LSB + rewrite + MSB program
	fmt.Fprintf(w, "  MSB + paired-LSB copy backup    : %8v  (%.1fx LSB)\n",
		eff, float64(eff)/float64(t.ProgLSB))
	fmt.Fprintf(w, "  page read                       : %8v\n", t.Read)
	fmt.Fprintf(w, "  block erase                     : %8v\n", t.Erase)
}

// RenderFig1Distributions draws the four-state Vth distribution diagram of
// Figure 1 from the Monte-Carlo model, fresh and at the worst-case
// operating condition, with the read references marked.
func RenderFig1Distributions(w io.Writer, seed uint64) error {
	params := vth.DefaultParams()
	params.CellsPerWordLine = 4096
	model, err := vth.NewModel(params)
	if err != nil {
		return err
	}
	const wl = 8
	order := core.FPSOrder(wl)
	cell := params.Cell
	for _, cond := range []struct {
		name   string
		stress vth.StressCondition
	}{
		{"fresh", vth.Fresh},
		{"3K P/E + 1-year retention", vth.WorstCase},
	} {
		sample, err := model.SampleWordLine(core.MLC(wl), order, wl/2, cond.stress, rng.New(seed))
		if err != nil {
			return err
		}
		var pops []ascii.Population
		for s := 0; s < cell.States(); s++ {
			pops = append(pops, ascii.Population{Label: cell.StateName(s), Values: sample.State(s)})
		}
		fmt.Fprintf(w, "\n  Vth distributions, %s:\n", cond.name)
		ascii.PlotHistogram(w, "", "Vth, V", pops, cell.ReadReferences(), 64, 7)
	}
	return nil
}

// RenderTable1 prints the regenerated workload characteristics.
func RenderTable1(w io.Writer, rows []Table1Row) {
	fmt.Fprintln(w, "Table 1 — I/O characteristics of the five benchmark workloads")
	fmt.Fprintf(w, "  %-11s %11s %12s %10s %10s %12s\n",
		"workload", "read:write", "intensity", "idle frac", "req pages", "offered IOPS")
	for _, r := range rows {
		read := int(r.ReadFraction*10 + 0.5)
		fmt.Fprintf(w, "  %-11s %7d:%-3d %12s %9.1f%% %10.2f %12.0f\n",
			r.Name, read, 10-read, r.Intensity, 100*r.IdleFraction, r.MeanReqPages, r.MeanIOPSOffer)
	}
}

// RenderFig4 prints the reliability box plots as five-number tables.
func RenderFig4(w io.Writer, res Fig4Result) {
	fmt.Fprintf(w, "Figure 4 — reliability of program orders (%d blocks, %d pages/order)\n",
		res.Config.Blocks, res.Rows[0].Pages)
	fmt.Fprintln(w, "(a) per-page sum of Vth state widths WPi [V], fresh:")
	for _, r := range res.Rows {
		fmt.Fprintf(w, "  %-22s %s\n", r.Order, r.WP)
	}
	var boxes []ascii.Box
	for _, r := range res.Rows {
		boxes = append(boxes, ascii.Box{Label: r.Order, Summary: r.WP})
	}
	ascii.PlotBoxes(w, "", "WPi sum, V", boxes, 56)
	fmt.Fprintln(w, "(b) per-page bit error rate at 3K P/E + 1-year retention:")
	for _, r := range res.Rows {
		fmt.Fprintf(w, "  %-22s %s\n", r.Order, fmtBERBox(r.BER))
	}
	fmt.Fprintln(w, "(b') 4KB-page ECC failure probability at end of life (40-bit/1KB BCH):")
	for _, r := range res.Rows {
		fmt.Fprintf(w, "  %-22s %.3g\n", r.Order, r.PageFailEOL)
	}
	fmt.Fprintln(w, "shape check: RPSfull/RPShalf boxes overlap FPS; the forbidden order is far wider.")
}

// RenderFig4TLC prints the TLC extension study.
func RenderFig4TLC(w io.Writer, res Fig4Result) {
	fmt.Fprintf(w, "TLC extension — reliability of 3-bit program orders (%d blocks, %d pages/order)\n",
		res.Config.Blocks, res.Rows[0].Pages)
	fmt.Fprintln(w, "(a) per-page sum of the 8 Vth state widths [V], fresh:")
	for _, r := range res.Rows {
		fmt.Fprintf(w, "  %-26s %s\n", r.Order, r.WP)
	}
	fmt.Fprintln(w, "(b) per-page bit error rate at 3K P/E + 1-year retention:")
	for _, r := range res.Rows {
		fmt.Fprintf(w, "  %-26s %s\n", r.Order, fmtBERBox(r.BER))
	}
	fmt.Fprintln(w, "shape check: the relaxed 3-phase order matches the vendor staircase — RPS")
	fmt.Fprintln(w, "generalizes to TLC as the paper claims; the forbidden order is clearly worse.")
}

func fmtBERBox(f stats.FiveNum) string {
	return fmt.Sprintf("min=%.2e q1=%.2e med=%.2e q3=%.2e max=%.2e",
		f.Min, f.Q1, f.Median, f.Q3, f.Max)
}

// RenderFig8a prints normalized IOPS per workload (Figure 8(a)).
func RenderFig8a(w io.Writer, res Fig8Result) {
	fmt.Fprintln(w, "Figure 8(a) — normalized IOPS (pageFTL = 1.00)")
	renderMatrix(w, res, res.normIOPS)
}

// RenderFig8b prints normalized block erasure counts (Figure 8(b)).
func RenderFig8b(w io.Writer, res Fig8Result) {
	fmt.Fprintln(w, "Figure 8(b) — normalized block erasure count (pageFTL = 1.00)")
	renderMatrix(w, res, res.normErases)
}

func renderMatrix(w io.Writer, res Fig8Result, cell func(*Fig8Cell) float64) {
	fmt.Fprintf(w, "  %-10s", "")
	for _, wl := range res.Workloads {
		fmt.Fprintf(w, " %10s", wl)
	}
	fmt.Fprintf(w, " %10s\n", "Average")
	for _, s := range res.Schemes {
		fmt.Fprintf(w, "  %-10s", s)
		for _, wl := range res.Workloads {
			fmt.Fprintf(w, " %10s", ratio(cell(res.Cells[s][wl])))
		}
		fmt.Fprintf(w, " %10s\n", ratio(res.Average(s, cell)))
	}
}

// RenderFig8c prints the Varmail write-bandwidth CDF curves (Figure 8(c))
// as aligned columns plus an ASCII plot.
func RenderFig8c(w io.Writer, res Fig8Result) {
	fmt.Fprintln(w, "Figure 8(c) — CDF of write bandwidth for Varmail [MB/s]")
	quantiles := []float64{0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 1.0}
	fmt.Fprintf(w, "  %-10s", "CDF")
	for _, q := range quantiles {
		fmt.Fprintf(w, " %8.0f%%", q*100)
	}
	fmt.Fprintln(w)
	for _, s := range res.Schemes {
		m := res.VarmailCDF(s)
		fmt.Fprintf(w, "  %-10s", s)
		for _, q := range quantiles {
			fmt.Fprintf(w, " %9.1f", m.BandwidthCDF.Inverse(q))
		}
		fmt.Fprintln(w)
	}
	var series []ascii.Series
	for _, s := range res.Schemes {
		m := res.VarmailCDF(s)
		series = append(series, ascii.Series{Label: s, Points: m.BandwidthCDF.Points(60)})
	}
	fmt.Fprintln(w)
	ascii.PlotCDF(w, "  CDF curves:", "write bandwidth, MB/s", series, 60, 12)
	flex := res.VarmailCDF("flexFTL").PeakWriteBandwidthMBs
	rtf := res.VarmailCDF("rtfFTL").PeakWriteBandwidthMBs
	if rtf > 0 {
		fmt.Fprintf(w, "  peak(flexFTL)/peak(rtfFTL) = %.2fx (paper: ~2.13x)\n", flex/rtf)
	}
}

// undefined reports a ratio to a zero baseline, or a value derived from one.
func undefined(v float64) bool { return math.IsNaN(v) || math.IsInf(v, 0) }

// ratio formats a normalized value, or n/a when it is undefined.
func ratio(v float64) string {
	if undefined(v) {
		return "n/a"
	}
	return fmt.Sprintf("%.2f", v)
}

// RenderFig8Summary prints the headline comparisons of Section 4.2. A
// comparison with an undefined ratio on any workload (a zero baseline)
// prints n/a.
func RenderFig8Summary(w io.Writer, res Fig8Result) {
	fmt.Fprintln(w, "Section 4.2 headline numbers (flexFTL vs each comparison FTL):")
	// headline prints the largest (at least 0) and the mean of f over the
	// workloads, in percent.
	headline := func(label, format string, f func(wl string) float64) {
		best, avg := 0.0, 0.0
		for _, wl := range res.Workloads {
			v := f(wl)
			best, avg = max(best, v), avg+v
		}
		avg /= float64(len(res.Workloads))
		if undefined(avg) {
			fmt.Fprintf(w, "  %s: n/a\n", label)
			return
		}
		fmt.Fprintf(w, "  %s: "+format+"\n", label, 100*best, 100*avg)
	}
	for _, ref := range []string{"pageFTL", "parityFTL", "rtfFTL"} {
		headline(fmt.Sprintf("IOPS vs %-10s", ref), "up to %+.0f%%, average %+.0f%%", func(wl string) float64 {
			return res.normIOPS(res.Cells["flexFTL"][wl])/res.normIOPS(res.Cells[ref][wl]) - 1
		})
	}
	for _, ref := range []string{"parityFTL", "rtfFTL"} {
		headline(fmt.Sprintf("erasures vs %-7s", ref), "up to -%.0f%%, average -%.0f%%", func(wl string) float64 {
			return 1 - res.normErases(res.Cells["flexFTL"][wl])/res.normErases(res.Cells[ref][wl])
		})
	}
}

// Rule prints a section divider.
func Rule(w io.Writer, title string) {
	fmt.Fprintf(w, "\n%s\n%s\n", title, strings.Repeat("=", len(title)))
}
