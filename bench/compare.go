package main

import (
	"fmt"
	"io"
	"slices"
)

// Comparison verdicts for one (workload, metric) row.
const (
	verdictOK         = "ok"
	verdictRegression = "REGRESSION"
	verdictUnresolved = "unresolved"
	verdictChanged    = "changed" // an exact metric moved in the better direction
)

// samples returns the repetition samples behind a value (the value itself
// for single measurements).
func (v value) samples() []float64 {
	if len(v.Reps) > 0 {
		return v.Reps
	}
	return []float64{v.Value}
}

// relSpread is the full range of the samples as a share of their median.
func relSpread(xs []float64) float64 {
	return ratio(slices.Max(xs)-slices.Min(xs), median(xs))
}

// judge applies a metric's direction and bound to a (parent A, change B)
// pair. worse is by how much B's median is worse than A's, as a share of A's.
func judge(d metricDef, a, b value) (verdict string, worse float64) {
	worse = ratio(b.Value-a.Value, a.Value)
	if a.Value == 0 {
		worse = b.Value - a.Value
	}
	if d.Better == "higher" {
		worse = -worse
	}
	if d.SameSeed == 0 {
		switch {
		case worse > 0:
			return verdictRegression, worse
		case worse < 0:
			return verdictChanged, worse
		}
		return verdictOK, 0
	}
	// Every run of one side beats every run of the other: the direction is
	// resolved however wide the spread is.
	as, bs := a.samples(), b.samples()
	separated := func(lo, hi []float64) bool { return slices.Max(lo) < slices.Min(hi) }
	bAllWorse, bAllBetter := separated(as, bs), separated(bs, as)
	if d.Better == "higher" {
		bAllWorse, bAllBetter = bAllBetter, bAllWorse
	}
	noisy := max(relSpread(as), relSpread(bs)) > d.SameSeed
	switch {
	case worse > d.SameSeed && (!noisy || bAllWorse):
		return verdictRegression, worse
	case noisy && !bAllBetter:
		return verdictUnresolved, worse
	}
	return verdictOK, worse
}

// compareResults prints one row per (workload, metric) and reports whether
// any metric regressed.
func compareResults(a, b result, w io.Writer) (regressed bool) {
	if a.Seed != b.Seed || a.Scale != b.Scale {
		fmt.Fprintf(w, "note: comparing seed %d scale %d against seed %d scale %d; exact metrics will differ\n",
			a.Seed, a.Scale, b.Seed, b.Scale)
	}
	coresWarning := a.CoresWarning || b.CoresWarning
	fmt.Fprintf(w, "%-16s %-28s %14s %14s %9s  %s\n", "workload", "metric", "A", "B", "worse%", "verdict")
	for _, sp := range specs(1) {
		wa, okA := a.Workloads[sp.name]
		wb, okB := b.Workloads[sp.name]
		if !okA || !okB {
			fmt.Fprintf(w, "%-16s missing from one side\n", sp.name)
			regressed = true
			continue
		}
		if wa.SimDigest != wb.SimDigest {
			fmt.Fprintf(w, "%-16s %-28s %14s %14s %9s  %s\n", sp.name, "sim_digest", wa.SimDigest, wb.SimDigest, "", verdictChanged)
		}
		for _, d := range endToEnd {
			va, okA := wa.EndToEnd[d.Name]
			vb, okB := wb.EndToEnd[d.Name]
			if !okA || !okB {
				continue
			}
			verdict, worse := judge(d, va, vb)
			note := ""
			if sp.workers > 1 && coresWarning && d.SameSeed != 0 {
				verdict, note = verdictUnresolved, " (cores_warning)"
			}
			if verdict == verdictRegression {
				regressed = true
			}
			fmt.Fprintf(w, "%-16s %-28s %14.6g %14.6g %+9.2f  %s%s\n", sp.name, d.Name, va.Value, vb.Value, 100*worse, verdict, note)
		}
	}
	return regressed
}

func compareFiles(pathA, pathB string, w io.Writer) int {
	var a, b result
	if err := readJSON(pathA, &a); err != nil {
		fmt.Fprintln(w, "bench:", err)
		return 2
	}
	if err := readJSON(pathB, &b); err != nil {
		fmt.Fprintln(w, "bench:", err)
		return 2
	}
	if compareResults(a, b, w) {
		fmt.Fprintln(w, "bench: regression")
		return 1
	}
	return 0
}
