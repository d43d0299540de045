// Command flexstat renders structured run reports from the JSON metric
// dumps of flexbench -metrics and flexsim -metrics, and compares two dumps
// run for run:
//
//	flexstat report  RUN.json                 # per-run latency/WAF table
//	flexstat report -assert-reliability RUN   # + reliability table, CI gate
//	flexstat compare OLD.json NEW.json        # per-run p99/WAF deltas
//	flexstat compare -p99 5 -waf 2 OLD NEW    # tighter gating thresholds
//
// compare exits nonzero when any matched run's write-ack p99 or WAF moves
// beyond the thresholds (percent), so CI can gate on it; two runs of the
// same scheme, workload and seed report zero delta and exit 0; two dumps
// with no run in common are refused with exit 2. report
// prints a reliability section for runs that carried a BER model
// (reads/retries/uncorrectables plus the FTL's scrub/refresh/retire
// responses); -assert-reliability turns that section into a gate: at least
// one modelled run, every one exercising the retry ladder and losing no
// read.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"strconv"

	"flexftl/internal/obs"
	"flexftl/internal/ssd"
)

func main() {
	os.Exit(realMain(os.Args[1:], os.Stdout, os.Stderr))
}

func usage(w io.Writer) {
	fmt.Fprintln(w, "usage: flexstat report [-assert-reliability] FILE.json")
	fmt.Fprintln(w, "       flexstat compare [-p99 PCT] [-waf PCT] OLD.json NEW.json")
}

func realMain(args []string, out, errw io.Writer) int {
	if len(args) < 1 {
		usage(errw)
		return 2
	}
	switch args[0] {
	case "report":
		fs := flag.NewFlagSet("report", flag.ContinueOnError)
		fs.SetOutput(errw)
		assertRel := fs.Bool("assert-reliability", false,
			"exit nonzero unless every reliability-modelled run retried at least one read and lost none (CI smoke gate)")
		if err := fs.Parse(args[1:]); err != nil {
			return 2
		}
		if fs.NArg() != 1 {
			usage(errw)
			return 2
		}
		code, err := report(out, fs.Arg(0), *assertRel)
		if err != nil {
			fmt.Fprintln(errw, "flexstat:", err)
			return 2
		}
		return code
	case "compare":
		fs := flag.NewFlagSet("compare", flag.ContinueOnError)
		fs.SetOutput(errw)
		p99Thresh := fs.Float64("p99", 10, "max allowed |write-ack p99 delta| in percent")
		wafThresh := fs.Float64("waf", 5, "max allowed |WAF delta| in percent")
		if err := fs.Parse(args[1:]); err != nil {
			return 2
		}
		if fs.NArg() != 2 {
			usage(errw)
			return 2
		}
		code, err := compare(out, fs.Arg(0), fs.Arg(1), *p99Thresh, *wafThresh)
		if err != nil {
			fmt.Fprintln(errw, "flexstat:", err)
			return 2
		}
		return code
	default:
		usage(errw)
		return 2
	}
}

// runEntry is one ssd.RunResult found in a metrics dump, addressed by its
// JSON path (e.g. "fig8/Cells/flexFTL/Varmail/Result"). The path is the
// join key for compare: it is stable across runs of the same experiment set.
type runEntry struct {
	path string
	run  ssd.RunResult
}

// dump is one parsed metrics file: every embedded run result and any
// registry snapshot (flexsim -metrics attaches one when tracing is on).
type dump struct {
	runs []runEntry
	reg  *obs.RegistrySnapshot
}

// loadDump parses a metrics dump.
func loadDump(path string) (dump, error) {
	var d dump
	data, err := os.ReadFile(path)
	if err != nil {
		return d, err
	}
	var doc any
	if err := json.Unmarshal(data, &doc); err != nil {
		return d, fmt.Errorf("%s: %w", path, err)
	}
	collect(doc, "", &d)
	sort.Slice(d.runs, func(i, j int) bool { return d.runs[i].path < d.runs[j].path })
	return d, nil
}

// collect walks the decoded JSON tree. An object carrying the RunResult key
// set is re-marshaled into the typed struct; an object with the registry
// snapshot's Counters and Gauges keys becomes the blame section of the report
// (the Histograms key of older dumps is ignored).
func collect(v any, path string, d *dump) {
	switch n := v.(type) {
	case map[string]any:
		if hasKeys(n, "FTLName", "Workload", "Metrics", "Stats") {
			var r ssd.RunResult
			if remarshal(n, &r) == nil {
				d.runs = append(d.runs, runEntry{path: path, run: r})
				return
			}
		}
		if d.reg == nil && hasKeys(n, "Counters", "Gauges") {
			var snap obs.RegistrySnapshot
			if remarshal(n, &snap) == nil {
				d.reg = &snap
				return
			}
		}
		keys := make([]string, 0, len(n))
		for k := range n {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			collect(n[k], join(path, k), d)
		}
	case []any:
		for i, e := range n {
			collect(e, join(path, strconv.Itoa(i)), d)
		}
	}
}

func join(path, key string) string {
	if path == "" {
		return key
	}
	return path + "/" + key
}

func hasKeys(m map[string]any, keys ...string) bool {
	for _, k := range keys {
		if _, ok := m[k]; !ok {
			return false
		}
	}
	return true
}

func remarshal(m map[string]any, dst any) error {
	b, err := json.Marshal(m)
	if err != nil {
		return err
	}
	return json.Unmarshal(b, dst)
}

// report renders the per-run latency/WAF table plus the registry's blame
// counters when the dump carries them. With assertRel it additionally gates
// on the reliability sections (the CI smoke contract): every
// reliability-modelled run must have classified reads, retried at least one,
// and lost none. Returns the process exit code.
func report(w io.Writer, file string, assertRel bool) (int, error) {
	d, err := loadDump(file)
	if err != nil {
		return 2, err
	}
	runs, reg := d.runs, d.reg
	fmt.Fprintf(w, "flexstat report: %s — %d run(s)\n\n", file, len(runs))
	if len(runs) > 0 {
		fmt.Fprintf(w, "%-14s %-12s %8s %9s %7s %9s %9s %9s %9s %9s %8s\n",
			"scheme", "workload", "reqs", "IOPS", "WAF",
			"r.p50", "r.p99", "w.p50", "w.p99", "w.p999", "erases")
		for _, e := range runs {
			r := e.run
			lat := r.Latency
			fmt.Fprintf(w, "%-14s %-12s %8d %9.0f %7.3f %9.1f %9.1f %9.1f %9.1f %9.1f %8d\n",
				r.FTLName, r.Workload, r.Metrics.Requests, r.Metrics.IOPS, r.WAF,
				lat.Read.P50, lat.Read.P99,
				lat.WriteAck.P50, lat.WriteAck.P99, lat.WriteAck.P999,
				r.Stats.Erases)
		}
	}
	// Placement section: wear spread for every run that reports it, plus the
	// hot/cold stream split where a multi-stream placement produced one.
	placed := make([]runEntry, 0, len(runs))
	for _, e := range runs {
		if e.run.WearSpread > 0 {
			placed = append(placed, e)
		}
	}
	if len(placed) > 0 {
		fmt.Fprintf(w, "\nplacement (wear spread = max/mean erases; streams split hot/cold):\n")
		fmt.Fprintf(w, "  %-14s %-12s %7s %8s %10s %10s %6s\n",
			"scheme", "workload", "WAF", "wear", "hot wr", "cold wr", "hot%")
		for _, e := range placed {
			r := e.run
			hot, cold := r.Stats.HostWritesHot, r.Stats.HostWritesCold
			hotS, coldS, share := "-", "-", "-"
			if hot+cold > 0 {
				hotS = fmt.Sprintf("%d", hot)
				coldS = fmt.Sprintf("%d", cold)
				share = fmt.Sprintf("%.1f", 100*float64(hot)/float64(hot+cold))
			}
			fmt.Fprintf(w, "  %-14s %-12s %7.3f %8.3f %10s %10s %6s\n",
				r.FTLName, r.Workload, r.WAF, r.WearSpread, hotS, coldS, share)
		}
	}
	// Reliability section: read-outcome classification and the kernel's
	// responses, for every run whose device carried the BER model.
	relRuns := make([]runEntry, 0, len(runs))
	for _, e := range runs {
		if e.run.Reliability != nil {
			relRuns = append(relRuns, e)
		}
	}
	relFailures := 0
	if len(relRuns) > 0 {
		fmt.Fprintf(w, "\nreliability (ECC read outcomes and FTL responses):\n")
		fmt.Fprintf(w, "  %-14s %-12s %10s %8s %8s %7s %7s %9s %8s %8s\n",
			"scheme", "workload", "reads", "retried", "uncorr", "lost", "scrubs", "refreshed", "rebuilt", "retired")
		for _, e := range relRuns {
			r := e.run
			rr := r.Reliability
			fmt.Fprintf(w, "  %-14s %-12s %10d %8d %8d %7d %7d %9d %8d %8d\n",
				r.FTLName, r.Workload, rr.Reads, rr.RetriedReads, rr.Uncorrectable,
				rr.UncorrectableReads, rr.ScrubReads, rr.RefreshedBlocks, rr.ECCRebuilds, rr.RetiredBlocks)
			if assertRel && (rr.Reads == 0 || rr.RetriedReads == 0 || rr.Uncorrectable != 0) {
				relFailures++
				fmt.Fprintf(w, "  ^ FAIL: want reads > 0, retried > 0, uncorrectable == 0\n")
			}
		}
	}
	if assertRel && len(relRuns) == 0 {
		fmt.Fprintf(w, "\nreliability assertion FAILED: the dump carries no reliability-modelled runs\n")
		relFailures++
	}
	if reg != nil {
		fmt.Fprintf(w, "\nblame decomposition (µs):\n")
		names := make([]string, 0, len(reg.Counters))
		for n := range reg.Counters {
			names = append(names, n)
		}
		sort.Strings(names)
		for _, n := range names {
			fmt.Fprintf(w, "  %-28s %12d\n", n, reg.Counters[n])
		}
	}
	if relFailures > 0 {
		fmt.Fprintf(w, "\nreliability assertion: %d run(s) failed\n", relFailures)
		return 1, nil
	}
	if assertRel {
		fmt.Fprintf(w, "\nreliability assertion: %d run(s) OK\n", len(relRuns))
	}
	return 0, nil
}

// deltaPct is the relative change new vs old in percent; +Inf marks a value
// appearing from zero (always beyond any threshold).
func deltaPct(old, new float64) float64 {
	if old == new {
		return 0
	}
	if old == 0 {
		return math.Inf(1)
	}
	return 100 * (new - old) / old
}

func fmtDelta(d float64) string {
	if math.IsInf(d, 1) {
		return "    +inf"
	}
	return fmt.Sprintf("%+7.2f%%", d)
}

// compare joins two dumps run for run (by JSON path) and gates on the
// write-ack p99 and WAF deltas. Runs present in only one dump are listed but
// do not gate; dumps with no run in common are refused. Returns the process
// exit code.
func compare(w io.Writer, oldFile, newFile string, p99Thresh, wafThresh float64) (int, error) {
	oldDump, err := loadDump(oldFile)
	if err != nil {
		return 2, err
	}
	newDump, err := loadDump(newFile)
	if err != nil {
		return 2, err
	}
	oldRuns, newRuns := oldDump.runs, newDump.runs
	oldBy := make(map[string]ssd.RunResult, len(oldRuns))
	for _, e := range oldRuns {
		oldBy[e.path] = e.run
	}
	newBy := make(map[string]ssd.RunResult, len(newRuns))
	for _, e := range newRuns {
		newBy[e.path] = e.run
	}
	paths := make([]string, 0, len(oldBy)+len(newBy))
	for p := range oldBy {
		paths = append(paths, p)
	}
	common := 0
	for p := range newBy {
		if _, ok := oldBy[p]; ok {
			common++
		} else {
			paths = append(paths, p)
		}
	}
	// A gate that matched nothing checked nothing: refuse rather than pass.
	if common == 0 {
		return 2, fmt.Errorf("no common runs: %s and %s share no run path; compare dumps of the same experiments", oldFile, newFile)
	}
	sort.Strings(paths)

	fmt.Fprintf(w, "flexstat compare: %s -> %s\n\n", oldFile, newFile)
	fmt.Fprintf(w, "%-14s %-12s %10s %10s %8s %8s %8s %8s\n",
		"scheme", "workload", "old p99", "new p99", "Δp99", "old WAF", "new WAF", "ΔWAF")
	failed := 0
	maxP99, maxWAF := 0.0, 0.0
	for _, p := range paths {
		o, inOld := oldBy[p]
		n, inNew := newBy[p]
		switch {
		case !inNew:
			fmt.Fprintf(w, "%-14s %-12s  (only in %s)\n", o.FTLName, o.Workload, oldFile)
			continue
		case !inOld:
			fmt.Fprintf(w, "%-14s %-12s  (only in %s)\n", n.FTLName, n.Workload, newFile)
			continue
		}
		dp99 := deltaPct(o.Latency.WriteAck.P99, n.Latency.WriteAck.P99)
		dwaf := deltaPct(o.WAF, n.WAF)
		if math.Abs(dp99) > maxP99 {
			maxP99 = math.Abs(dp99)
		}
		if math.Abs(dwaf) > maxWAF {
			maxWAF = math.Abs(dwaf)
		}
		mark := ""
		if math.Abs(dp99) > p99Thresh || math.Abs(dwaf) > wafThresh {
			failed++
			mark = "  << FAIL"
		}
		fmt.Fprintf(w, "%-14s %-12s %10.1f %10.1f %s %8.3f %8.3f %s%s\n",
			n.FTLName, n.Workload,
			o.Latency.WriteAck.P99, n.Latency.WriteAck.P99, fmtDelta(dp99),
			o.WAF, n.WAF, fmtDelta(dwaf), mark)
	}
	// Wear-spread deltas, joined by path. Non-gating: wear imbalance is a
	// lifetime signal the placement axis moves deliberately, not a
	// regression gate.
	wearPaths := make([]string, 0, len(paths))
	for _, p := range paths {
		if oldBy[p].WearSpread > 0 || newBy[p].WearSpread > 0 {
			wearPaths = append(wearPaths, p)
		}
	}
	if len(wearPaths) > 0 {
		fmt.Fprintf(w, "\nwear spread (non-gating):\n")
		fmt.Fprintf(w, "  %-14s %-12s %9s %9s %8s\n", "scheme", "workload", "old wear", "new wear", "Δwear")
		for _, p := range wearPaths {
			o, inOld := oldBy[p]
			n, inNew := newBy[p]
			switch {
			case !inNew:
				fmt.Fprintf(w, "  %-14s %-12s %9.3f %9s\n", o.FTLName, o.Workload, o.WearSpread, "(gone)")
			case !inOld:
				fmt.Fprintf(w, "  %-14s %-12s %9s %9.3f\n", n.FTLName, n.Workload, "(new)", n.WearSpread)
			default:
				fmt.Fprintf(w, "  %-14s %-12s %9.3f %9.3f %s\n",
					n.FTLName, n.Workload, o.WearSpread, n.WearSpread,
					fmtDelta(deltaPct(o.WearSpread, n.WearSpread)))
			}
		}
	}
	verdict := "OK"
	if failed > 0 {
		verdict = "FAIL"
	}
	fmt.Fprintf(w, "\n%d run(s) compared, %d beyond thresholds (|Δp99| <= %g%%, |ΔWAF| <= %g%%): %s\n",
		common, failed, p99Thresh, wafThresh, verdict)
	if failed > 0 {
		return 1, nil
	}
	return 0, nil
}
