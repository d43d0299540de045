// Command bench is the repository's benchmark: eight named workloads, each
// measured end to end (tracing off, median of repetitions) and layer by layer
// (one traced repetition plus micro-timers), with output checks.
//
//	go run ./bench                      all workloads, one child process each; writes bench/out/result.json
//	go run ./bench -workload ntrx_gc -seed 42 -seconds 10 -trace 0
//	                                    one workload in this process (the BENCHMARK.json contract);
//	                                    the last stdout line is the result as one JSON object
//	go run ./bench -compare A.json B.json
//
// See bench/README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
)

const (
	outDir = "bench/out"
	// traceBoth is the -trace value the parent passes its children: untraced
	// repetitions and the traced one in the same process.
	traceBoth = 2
	// untracedReps is the minimum number of untraced repetitions behind the
	// end-to-end medians. A traced-only run keeps tracedOnlyReps of them
	// beside the traced one: the first repetition in a process also pays for
	// growing the heap, so the tracing overhead is taken against the second.
	untracedReps   = 3
	tracedOnlyReps = 2
)

// result is bench/out/result.json: one full run over every workload.
type result struct {
	Seed       uint64 `json:"seed"`
	Scale      int    `json:"scale"`
	GoMaxProcs int    `json:"gomaxprocs"`
	NumCPU     int    `json:"nproc"`
	GoVersion  string `json:"go"`
	// CoresWarning is set when the machine has fewer cores than the sharded
	// workload has workers: its host-time numbers then measure contention.
	CoresWarning bool                      `json:"cores_warning"`
	Workloads    map[string]workloadResult `json:"workloads"`
}

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	workload := fs.String("workload", "", "run this one workload in-process and print its result as the last line (default: all, one child process each)")
	seed := fs.Uint64("seed", 42, "workload generator seed (7 is the held-out second seed)")
	seconds := fs.Float64("seconds", 8, "keep repeating untraced repetitions past the minimum of 3 until they have measured this long (divided by -scale)")
	trace := fs.Int("trace", 0, "with -workload: 0 = end-to-end metrics (tracing off), 1 = per-layer metrics (traced repetition + micro-timers), 2 = both")
	scale := fs.Int("scale", 1, "divide every request count by this (smoke runs)")
	compare := fs.Bool("compare", false, "compare two result files: bench -compare A.json B.json")
	pin := fs.Bool("pin", false, "skip the pinned-digest check and, after a full run whose other checks pass, write the digests into bench/expected.json")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *scale < 1 {
		fmt.Fprintln(os.Stderr, "bench: -scale must be at least 1")
		return 2
	}
	switch {
	case *compare:
		if fs.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "usage: bench -compare A.json B.json")
			return 2
		}
		return compareFiles(fs.Arg(0), fs.Arg(1), os.Stdout)
	case *workload != "":
		o := childOpts{
			workload: *workload, seed: *seed, scale: *scale, reps: untracedReps, seconds: *seconds / float64(*scale),
			untraced: *trace != 1, traced: *trace != 0, outDir: outDir, skipPins: *pin,
		}
		if !o.untraced {
			o.reps = tracedOnlyReps
		}
		return child(o, *trace == traceBoth)
	default:
		return parent(*seed, *scale, *seconds, *pin)
	}
}

// child runs one workload and prints the result line. full adds the complete
// workloadResult for the parent to read back.
func child(o childOpts, full bool) int {
	res, err := runWorkload(o)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	printWorkload(res)
	if full {
		if err := writeJSON(filepath.Join(o.outDir, "run-"+o.workload+".json"), res); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 1
		}
	}
	// The result line carries what BENCHMARK.json declares: its end_to_end
	// metrics untraced, its per_layer ones traced.
	line := struct {
		Correct   bool             `json:"correct"`
		Attempted int64            `json:"attempted"`
		Failed    int64            `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{res.correct(), res.Attempted, res.Failed, map[string]value{}}
	if o.untraced {
		for _, d := range endToEnd {
			if v, ok := res.EndToEnd[d.Name]; ok && !d.PerLayerOnly {
				line.Metrics[d.Name] = value{Value: v.Value, Unit: v.Unit}
			}
		}
	} else {
		for name, v := range res.PerLayer {
			line.Metrics[name] = value{Value: v.Value, Unit: v.Unit}
		}
	}
	data, err := json.Marshal(line)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	fmt.Println(string(data))
	if !res.correct() {
		return 1
	}
	return 0
}

// printWorkload prints every metric by name with its unit, then the failed
// checks and flags.
func printWorkload(res workloadResult) {
	fmt.Printf("== %s  seed=%d scale=%d reps=%d sim_digest=%s\n", res.Workload, res.Seed, res.Scale, res.Reps, res.SimDigest)
	for _, d := range endToEnd {
		if v, ok := res.EndToEnd[d.Name]; ok {
			fmt.Printf("  %-32s %16.6g %s\n", d.Name, v.Value, v.Unit)
		}
	}
	for _, d := range perLayerUnits {
		if v, ok := res.PerLayer[d.Name]; ok {
			fmt.Printf("  %-32s %16.6g %s\n", d.Name, v.Value, v.Unit)
		}
	}
	for _, f := range res.Flags {
		fmt.Println("  FLAG:", f)
	}
	for _, c := range res.Checks {
		fmt.Println("  CHECK FAILED:", c)
	}
}

// parent runs every workload, one at a time, each in a fresh child process of
// this binary, and writes the combined result.
func parent(seed uint64, scale int, seconds float64, pin bool) int {
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	all := result{
		Seed: seed, Scale: scale,
		GoMaxProcs: runtime.GOMAXPROCS(0), NumCPU: runtime.NumCPU(), GoVersion: runtime.Version(),
		Workloads: map[string]workloadResult{},
	}
	fmt.Printf("bench: seed=%d scale=%d GOMAXPROCS=%d nproc=%d %s\n", seed, scale, all.GoMaxProcs, all.NumCPU, all.GoVersion)
	status := 0
	for _, sp := range specs(scale) {
		if sp.workers > all.NumCPU {
			all.CoresWarning = true
		}
		cmd := exec.Command(self, "-workload", sp.name, "-seed", fmt.Sprint(seed), "-scale", fmt.Sprint(scale),
			"-seconds", fmt.Sprint(seconds), "-trace", fmt.Sprint(traceBoth), fmt.Sprintf("-pin=%t", pin))
		cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
		runErr := cmd.Run()
		var wr workloadResult
		if err := readJSON(filepath.Join(outDir, "run-"+sp.name+".json"), &wr); err != nil {
			fmt.Fprintf(os.Stderr, "bench: %s: %v (child: %v)\n", sp.name, err, runErr)
			status = 1
			continue
		}
		if runErr != nil || !wr.correct() {
			status = 1
		}
		all.Workloads[sp.name] = wr
		os.Remove(filepath.Join(outDir, "run-"+sp.name+".json"))
	}
	if all.CoresWarning {
		fmt.Println("bench: cores_warning: fewer cores than shard workers; ntrx_sharded host-time numbers measure contention")
	}
	if err := writeJSON(filepath.Join(outDir, "result.json"), all); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	if pin && status == 0 {
		if err := pinDigests(all); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 1
		}
	}
	if status != 0 {
		fmt.Println("bench: FAILED output checks")
	}
	return status
}

// pinDigests records the run's digests in bench/expected.json.
func pinDigests(all result) error {
	pins, err := loadExpected()
	if err != nil {
		return err
	}
	sc, sd := fmt.Sprint(all.Scale), fmt.Sprint(all.Seed)
	if pins == nil {
		pins = expected{}
	}
	if pins[sc] == nil {
		pins[sc] = map[string]map[string]string{}
	}
	pins[sc][sd] = map[string]string{}
	for name, wr := range all.Workloads {
		pins[sc][sd][name] = wr.SimDigest
	}
	return writeJSON("bench/expected.json", pins)
}

func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

func readJSON(path string, v any) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	return json.Unmarshal(data, v)
}
