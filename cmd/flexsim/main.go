// Command flexsim runs one FTL against one workload and reports the
// measurements:
//
//	flexsim -ftl flexFTL -workload Varmail -requests 100000
//	flexsim -ftl flexFTL -trace run.json -sample 10ms       # Chrome trace + series
//	flexsim -ftl flexFTL -trace run.jsonl -trace-format jsonl
//	flexsim -ftl pageFTL -workload NTRX -dump-workload t.csv # dump the workload
//	flexsim -ftl flexFTL -replay t.csv                       # replay a dump or a flextrace file
//	flexsim -ftl flexFTL -rel -rel-wear 6000                 # BER model + responses on a worn device
//	flexsim -ftl flexFTL -cpuprofile cpu.pprof               # CPU profile of the run
//
// A -trace file in the default chrome format loads directly in
// chrome://tracing or https://ui.perfetto.dev; see docs/OBSERVABILITY.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime/pprof"
	"strings"
	"time"

	"flexftl/internal/experiments"
	"flexftl/internal/ftl"
	_ "flexftl/internal/ftl/nflex" // registers the nflexTLC scheme
	"flexftl/internal/nand"
	"flexftl/internal/obs"
	"flexftl/internal/rel"
	"flexftl/internal/sim"
	"flexftl/internal/ssd"
	"flexftl/internal/workload"
)

// options bundles everything run needs; flags map onto it one to one.
type options struct {
	FTL           string
	Workload      string
	Requests      int
	Seed          uint64
	Full          bool
	GCPolicy      string
	Predictive    bool
	DumpWorkload  string        // write the generated workload as CSV
	Replay        string        // replay a trace file (CSV or binary) instead of generating
	Trace         string        // event-trace output file
	TraceFormat   string        // chrome|jsonl
	Sample        time.Duration // internal-state sampling cadence (0 = off)
	SampleOut     string        // sampled series CSV output file
	CPUProfile    string        // CPU profile output file
	Metrics       string        // structured run-result JSON output file
	Rel           bool          // mount the BER model and the kernel's reliability responses
	RelSeed       uint64        // per-read hash seed of the BER model
	RelWear       int           // pre-wear every block this many P/E cycles before the run
	RelDetectOnly bool          // model on, kernel responses off (detect-only baseline)
}

// listSchemes prints every registered FTL scheme with its rule set and
// one-line description.
func listSchemes(w io.Writer) {
	for _, name := range ftl.Names() {
		spec, _ := ftl.Lookup(name)
		label := spec.Rules
		if spec.Hybrid {
			label += ", hybrid"
		}
		fmt.Fprintf(w, "%-18s %-12s %s\n", name, "("+label+")", spec.Description)
	}
}

func main() {
	var o options
	list := flag.Bool("list", false, "list registered FTL schemes and exit")
	flag.StringVar(&o.FTL, "ftl", "flexFTL", "FTL scheme: "+strings.Join(ftl.Names(), "|"))
	flag.StringVar(&o.Workload, "workload", "Varmail", "workload: OLTP|NTRX|Webserver|Varmail|Fileserver")
	flag.IntVar(&o.Requests, "requests", 100000, "host requests")
	flag.Uint64Var(&o.Seed, "seed", 42, "workload seed")
	flag.BoolVar(&o.Full, "full", false, "use the paper's 16 GB geometry")
	flag.StringVar(&o.GCPolicy, "gc", "greedy", "GC victim policy: greedy|costbenefit")
	flag.BoolVar(&o.Predictive, "predictive-bgc", false, "enable the Section 6 future-write predictor (flexFTL only)")
	flag.StringVar(&o.DumpWorkload, "dump-workload", "", "write the generated workload as CSV to this file")
	flag.StringVar(&o.Replay, "replay", "", "replay a trace file instead of generating (.csv is CSV, any other extension the flextrace binary format)")
	flag.StringVar(&o.Trace, "trace", "", "write an event trace of the run to this file")
	flag.StringVar(&o.TraceFormat, "trace-format", "chrome", "event trace format: chrome|jsonl")
	flag.DurationVar(&o.Sample, "sample", 0, "sample internal state (u, q, queue depths) on this virtual-time cadence")
	flag.StringVar(&o.SampleOut, "sample-out", "", "write the sampled series as CSV to this file")
	flag.StringVar(&o.CPUProfile, "cpuprofile", "", "write a CPU profile of the run to this file (read with go tool pprof)")
	flag.StringVar(&o.Metrics, "metrics", "", "write the run result (flexstat-readable JSON) to this file")
	flag.BoolVar(&o.Rel, "rel", false, "mount the per-page BER model and the kernel's scrub/refresh/retire responses")
	flag.Uint64Var(&o.RelSeed, "rel-seed", 1, "BER model per-read hash seed (with -rel)")
	flag.IntVar(&o.RelWear, "rel-wear", 0, "pre-wear every block this many P/E cycles before the run (with -rel)")
	flag.BoolVar(&o.RelDetectOnly, "rel-detect-only", false, "with -rel: model the errors but disable the kernel's responses")
	flag.Parse()
	if *list {
		listSchemes(os.Stdout)
		return
	}
	if err := run(os.Stdout, o); err != nil {
		fmt.Fprintln(os.Stderr, "flexsim:", err)
		os.Exit(1)
	}
}

// buildFTL resolves the scheme through the ftl registry, layering the
// CLI-only policy knobs onto the build environment.
func buildFTL(o options, g nand.Geometry) (ftl.FTL, error) {
	cfg := ftl.DefaultConfig()
	switch o.GCPolicy {
	case "greedy":
	case "costbenefit":
		cfg.GC = ftl.GCCostBenefit
	default:
		return nil, fmt.Errorf("unknown GC policy %q (greedy|costbenefit)", o.GCPolicy)
	}
	flex := ftl.DefaultFlexParams()
	flex.PredictiveBGC = o.Predictive
	env := ftl.BuildEnv{Geometry: g, Config: cfg, Flex: flex}
	if o.Rel {
		rc := rel.DefaultConfig(o.RelSeed)
		env.Reliability = &rc
		if !o.RelDetectOnly {
			env.Config.Reliability = ftl.DefaultRelPolicy()
		}
	}
	f, err := ftl.BuildFTL(o.FTL, env)
	if err != nil {
		return nil, err
	}
	if o.Rel && o.RelWear > 0 {
		dev := f.Device()
		dg := dev.Geometry()
		for chip := 0; chip < dg.Chips(); chip++ {
			for blk := 0; blk < dg.BlocksPerChip; blk++ {
				a := nand.BlockAddr{Chip: chip, Block: blk}
				for i := 0; i < o.RelWear; i++ {
					if _, err := dev.Erase(a, 0); err != nil {
						return nil, fmt.Errorf("pre-wear %v: %w", a, err)
					}
				}
			}
		}
	}
	return f, nil
}

// newRecorder assembles the observability stack the flags ask for. It
// returns a nil recorder (tracing fully disabled) when no flag wants one.
// The returned cleanup writes the sample CSV and closes the trace file.
func newRecorder(w io.Writer, o options) (*obs.Recorder, func() error, error) {
	if o.Trace == "" && o.Sample <= 0 && o.SampleOut == "" {
		return nil, func() error { return nil }, nil
	}

	var ro obs.Options
	var traceFile *os.File
	if o.Trace != "" {
		f, err := os.Create(o.Trace)
		if err != nil {
			return nil, nil, err
		}
		traceFile = f
		switch o.TraceFormat {
		case "chrome":
			ro.Sink = obs.NewChromeSink(f)
		case "jsonl":
			ro.Sink = obs.NewJSONLSink(f)
		default:
			f.Close()
			return nil, nil, fmt.Errorf("unknown trace format %q (chrome|jsonl)", o.TraceFormat)
		}
	}

	sample := o.Sample
	if sample <= 0 && o.SampleOut != "" {
		sample = 10 * time.Millisecond
	}
	if sample > 0 {
		ro.Sampler = obs.NewSampler(sim.Time(sample / time.Microsecond))
	}

	rec := obs.NewRecorder(ro)

	cleanup := func() error {
		err := rec.Close()
		if traceFile != nil {
			if cerr := traceFile.Close(); err == nil {
				err = cerr
			}
			if err == nil {
				fmt.Fprintf(w, "trace    : wrote %d events to %s (%s format)\n",
					rec.Emitted(), o.Trace, o.TraceFormat)
			}
		}
		if o.SampleOut != "" && err == nil {
			f, serr := os.Create(o.SampleOut)
			if serr != nil {
				return serr
			}
			serr = rec.Sampler().WriteCSV(f)
			if cerr := f.Close(); serr == nil {
				serr = cerr
			}
			if serr != nil {
				return serr
			}
			fmt.Fprintf(w, "samples  : wrote %d rows (%s) to %s\n",
				len(rec.Sampler().Rows()), strings.Join(rec.Sampler().Names(), ","), o.SampleOut)
		}
		return err
	}
	return rec, cleanup, nil
}

// writeMetrics dumps the run result (plus the registry snapshot when tracing
// is on) as the same nested-JSON shape flexbench -metrics emits, so flexstat
// report/compare reads either tool's output.
func writeMetrics(path, scheme string, res ssd.RunResult, rec *obs.Recorder, wall time.Duration) error {
	doc := map[string]any{
		"single": res,
		"runinfo": map[string]any{
			"single": map[string]any{
				"workers": 1,
				"wall_ms": float64(wall) / float64(time.Millisecond),
				"schemes": []string{scheme},
			},
		},
	}
	if rec != nil {
		doc["registry"] = rec.Registry().Snapshot()
	}
	data, err := json.MarshalIndent(doc, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

func run(w io.Writer, o options) (runErr error) {
	start := time.Now()
	geometry := experiments.EvalGeometry()
	if o.Full {
		geometry = nand.DefaultGeometry()
	}
	f, err := buildFTL(o, geometry)
	if err != nil {
		return err
	}
	sys, err := ssd.New(f, ssd.DefaultConfig())
	if err != nil {
		return err
	}
	spec, _ := ftl.Lookup(o.FTL)
	fmt.Fprintf(w, "device   : %s (%s rules)\n", f.Device().Geometry(), spec.Rules)
	fmt.Fprintf(w, "ftl      : %s, logical space %d pages\n", f.Name(), f.LogicalPages())

	var gen workload.Generator
	var replay *workload.Replay // set with gen when replaying a trace
	if o.Replay != "" {
		var closeTrace func() error
		replay, closeTrace, err = workload.Open(o.Replay)
		if err != nil {
			return err
		}
		defer closeTrace()
		gen = replay
	} else {
		prof, err := workload.FindProfile(o.Workload)
		if err != nil {
			return err
		}
		gen, err = workload.New(prof, f.LogicalPages(), o.Requests, o.Seed)
		if err != nil {
			return err
		}
		if o.DumpWorkload != "" {
			file, err := os.Create(o.DumpWorkload)
			if err != nil {
				return err
			}
			n, err := workload.WriteCSV(file, gen)
			if cerr := file.Close(); err == nil {
				err = cerr
			}
			if err != nil {
				return err
			}
			fmt.Fprintf(w, "workload : wrote %d requests to %s\n", n, o.DumpWorkload)
			// Regenerate for the run itself (the writer consumed gen).
			gen, err = workload.New(prof, f.LogicalPages(), o.Requests, o.Seed)
			if err != nil {
				return err
			}
		}
	}

	rec, finishObs, err := newRecorder(w, o)
	if err != nil {
		return err
	}

	if o.CPUProfile != "" {
		f, err := os.Create(o.CPUProfile)
		if err != nil {
			return err
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Close()
			return err
		}
		defer func() {
			pprof.StopCPUProfile()
			if cerr := f.Close(); runErr == nil {
				runErr = cerr
			}
		}()
	}
	if _, err := sys.Prefill(); err != nil {
		return err
	}
	// Attach after Prefill so traces and samples cover the measured run only.
	sys.SetRecorder(rec)
	res, err := sys.Run(gen)
	if err == nil && replay != nil {
		err = replay.Err()
	}
	if err != nil {
		return err
	}
	m := res.Metrics
	st := res.Stats
	fmt.Fprintf(w, "workload : %s, %d requests (%d reads / %d writes)\n",
		res.Workload, m.Requests, m.Reads, m.Writes)
	fmt.Fprintf(w, "IOPS     : %.0f (active %v, makespan %v)\n", m.IOPS, m.ActiveTime, m.Makespan)
	fmt.Fprintf(w, "write BW : mean %.1f MB/s, peak(p99) %.1f MB/s\n",
		m.MeanWriteBandwidthMBs, m.PeakWriteBandwidthMBs)
	fmt.Fprintf(w, "response : %s us\n", m.ResponseTime)
	fmt.Fprintf(w, "  reads  : %s us\n", m.ReadResponse)
	fmt.Fprintf(w, "  writes : %s us\n", m.WriteResponse)
	fmt.Fprintf(w, "programs : host %d (LSB %d / MSB %d), GC copies %d, backups %d, pads %d\n",
		st.HostWrites, st.HostWritesLSB, st.HostWritesMSB, st.GCCopies, st.BackupWrites, st.PadWrites)
	fmt.Fprintf(w, "erases   : %d (WA %.2f), GC: %d foreground / %d background\n",
		st.Erases, st.WriteAmplification(), st.ForegroundGCs, st.BackgroundGCs)
	lat := res.Latency
	fmt.Fprintf(w, "latency  : write-ack p50/p95/p99/p999 = %.1f/%.1f/%.1f/%.1f us, read p99 = %.1f us (WAF %.3f)\n",
		lat.WriteAck.P50, lat.WriteAck.P95, lat.WriteAck.P99, lat.WriteAck.P999, lat.Read.P99, res.WAF)
	if rr := res.Reliability; rr != nil {
		retryPct := 0.0
		if rr.Reads > 0 {
			retryPct = 100 * float64(rr.RetriedReads) / float64(rr.Reads)
		}
		fmt.Fprintf(w, "reliability: %d reads classified (%.2f%% retried, %d uncorrectable); scrubs %d, refreshed blocks %d, rebuilds %d, retired %d\n",
			rr.Reads, retryPct, rr.Uncorrectable,
			rr.ScrubReads, rr.RefreshedBlocks, rr.ECCRebuilds, rr.RetiredBlocks)
	}
	if o.Metrics != "" {
		if err := writeMetrics(o.Metrics, o.FTL, res, rec, time.Since(start)); err != nil {
			return err
		}
		fmt.Fprintf(w, "metrics  : wrote run result to %s\n", o.Metrics)
	}
	return finishObs()
}
