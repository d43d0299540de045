package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"time"
)

// expectedJSON pins sim_digest per scale, seed and workload.
//
//go:embed expected.json
var expectedJSON []byte

// expected is scale -> seed -> workload -> sim_digest.
type expected map[string]map[string]map[string]string

func loadExpected() (expected, error) {
	var e expected
	if err := json.Unmarshal(expectedJSON, &e); err != nil {
		return nil, fmt.Errorf("expected.json: %w", err)
	}
	return e, nil
}

func (e expected) digest(scale int, seed uint64, workload string) (string, bool) {
	d, ok := e[strconv.Itoa(scale)][strconv.FormatUint(seed, 10)][workload]
	return d, ok
}

// value is one reported metric. Reps holds the per-repetition samples behind
// a median (absent for single measurements).
type value struct {
	Value float64   `json:"value"`
	Unit  string    `json:"unit"`
	Reps  []float64 `json:"reps,omitempty"`
}

// workloadResult is everything one child process measured for one workload.
type workloadResult struct {
	Workload    string           `json:"workload"`
	Seed        uint64           `json:"seed"`
	Scale       int              `json:"scale"`
	Reps        int              `json:"reps"`
	SimDigest   string           `json:"sim_digest"`
	InputDigest string           `json:"input_digest"`
	Attempted   int64            `json:"attempted"`
	Failed      int64            `json:"failed"`
	Checks      []string         `json:"failed_checks"`
	EndToEnd    map[string]value `json:"end_to_end,omitempty"`
	PerLayer    map[string]value `json:"per_layer,omitempty"`
	// Flags raised by the per-layer consistency rules (not failures).
	Flags []string `json:"flags,omitempty"`
}

func (r *workloadResult) correct() bool { return len(r.Checks) == 0 }

func (r *workloadResult) failCheck(format string, args ...any) {
	r.Checks = append(r.Checks, fmt.Sprintf(format, args...))
}

// childOpts selects what one child process does.
type childOpts struct {
	workload string
	seed     uint64
	scale    int
	// reps is the minimum number of untraced repetitions; seconds keeps them
	// going until their setup + steady wall time adds up to it.
	reps     int
	seconds  float64
	untraced bool   // run the untraced repetitions (end-to-end metrics)
	traced   bool   // run the traced repetition and micro-timers (per-layer metrics)
	outDir   string // where trace-<workload>.json goes
	skipPins bool   // do not hold sim_digest to expected.json (re-pinning)
}

const (
	// Setups faster than shortSetup are too short for a few samples to give a
	// steady median: setupSamples setup-only cycles are timed instead.
	shortSetup   = 100 * time.Millisecond
	setupSamples = 11
)

// runWorkload executes one workload in this process and checks its outputs.
func runWorkload(o childOpts) (workloadResult, error) {
	res := workloadResult{Workload: o.workload, Seed: o.seed, Scale: o.scale}
	sp, err := findSpec(o.workload, o.scale)
	if err != nil {
		return res, err
	}
	pins, err := loadExpected()
	if err != nil {
		return res, err
	}

	run := &runner{sp: sp, seed: o.seed}

	// note folds one repetition's outputs into the result-level checks.
	note := func(what string, oc outcome, err error) {
		res.Attempted += oc.pages
		res.Failed += oc.failed
		if err != nil {
			res.failCheck("%s: %v", what, err)
			return
		}
		if res.SimDigest == "" {
			res.SimDigest, res.InputDigest = oc.digest, oc.inputDigest
		} else if oc.digest != res.SimDigest {
			res.failCheck("%s: sim_digest %s differs from %s", what, oc.digest, res.SimDigest)
		}
	}

	// The sharded workload's contract is RunSharded == Run on the same input:
	// one serial repetition is the reference for the digest and the speedup.
	var serial *outcome
	if sp.workers > 1 {
		oc, err := run.rep(nil, true)
		note("serial reference", oc, err)
		serial = &oc
	}

	// A traced-only run needs untraced repetitions too, for the digest and
	// the tracing overhead.
	var reps []outcome
	var measured time.Duration
	for len(reps) < max(o.reps, 1) || (o.untraced && measured.Seconds() < o.seconds) {
		oc, err := run.rep(nil, false)
		note(fmt.Sprintf("repetition %d", len(reps)+1), oc, err)
		if err != nil {
			break
		}
		reps = append(reps, oc)
		measured += oc.setupWall + oc.steadyWall
	}
	res.Reps = len(reps)

	if o.untraced && len(reps) > 0 {
		setups, err := setupSamplesOf(sp, reps)
		if err != nil {
			res.failCheck("setup-only cycle: %v", err)
		}
		res.EndToEnd = endToEndMetrics(reps, setups)
	}

	if o.traced && res.correct() {
		tr := newTracer()
		oc, err := run.rep(tr, false)
		note("traced repetition", oc, err)
		if err == nil {
			m, err := runMicro(sp, oc, o.seed)
			if err != nil {
				res.failCheck("micro-timers: %v", err)
			}
			res.PerLayer, res.Flags = perLayerMetrics(sp, reps[len(reps)-1], serial, oc, tr, m)
			if err := os.MkdirAll(o.outDir, 0o755); err != nil {
				return res, err
			}
			if err := tr.writeRaw(filepath.Join(o.outDir, "trace-"+o.workload+".json")); err != nil {
				return res, err
			}
		}
	}

	// Output checks beyond digest stability.
	var last *outcome
	if len(reps) > 0 {
		last = &reps[len(reps)-1]
	}
	if want, ok := pins.digest(o.scale, o.seed, o.workload); ok && !o.skipPins && res.SimDigest != "" && res.SimDigest != want {
		res.failCheck("sim_digest %s differs from the pinned %s", res.SimDigest, want)
	}
	if sp.workers > 1 && last != nil && last.shard.ShardedShare() <= 0 {
		res.failCheck("sharded share is 0: RunSharded fell back to Run")
	}
	if sp.parts[0].aged && last != nil && last.rel.RetriedReads <= 0 {
		res.failCheck("aged device retried no reads: the BER model is not in the loop")
	}
	if res.Failed != 0 {
		res.failCheck("%d of %d host page ops failed", res.Failed, res.Attempted)
	}
	return res, nil
}

// setupSamplesOf returns the setup samples (wall seconds) behind setup_s: the
// repetitions' own setups, or, when those are short, a fixed number of
// setup-only cycles instead. The two are not mixed: a repetition's setup
// faults back in the memory the previous steady phase released, a setup-only
// cycle reuses a warm heap, so the median of a mix would move with the number
// of repetitions.
func setupSamplesOf(sp spec, reps []outcome) ([]float64, error) {
	var samples []float64
	for _, r := range reps {
		samples = append(samples, r.setupWall.Seconds())
	}
	if median(samples) >= shortSetup.Seconds() {
		return samples, nil
	}
	samples = samples[:0]
	for len(samples) < setupSamples {
		runtime.GC()
		t0 := time.Now()
		for _, p := range sp.parts {
			if _, _, err := p.setup(nil); err != nil {
				return samples, err
			}
		}
		samples = append(samples, time.Since(t0).Seconds())
	}
	return samples, nil
}

// endToEndMetrics reduces the untraced repetitions to the end-to-end
// metrics: medians for host-time metrics, the (identical) first repetition's
// value for simulated ones.
func endToEndMetrics(reps []outcome, setups []float64) map[string]value {
	series := func(f func(outcome) float64) []float64 {
		xs := make([]float64, len(reps))
		for i, r := range reps {
			xs[i] = f(r)
		}
		return xs
	}
	first := reps[0]
	raw := map[string][]float64{
		"host_pages_per_s": series(func(r outcome) float64 { return float64(r.pages) / r.steadyWall.Seconds() }),
		"setup_s":          setups,
		"steady_allocs_per_kpage": series(func(r outcome) float64 {
			return float64(r.steadyMallocs) / float64(r.pages) * 1000
		}),
		"steady_alloc_bytes_per_page": series(func(r outcome) float64 { return float64(r.steadyBytes) / float64(r.pages) }),
		"setup_allocs":                series(func(r outcome) float64 { return float64(r.setupAllocs) }),
		"peak_rss_mb":                 {peakRSSMiB()},
		"sim_iops":                    {first.simIOPS()},
		"sim_erases":                  {float64(first.stats.Erases)},
		"sim_waf":                     {first.stats.WriteAmplification()},
		"sim_read_p99_us":             {first.readP99},
		"sim_write_ack_p99_us":        {first.writeAckP99},
		"failed_ops_share":            {float64(first.failed) / float64(first.pages)},
	}
	out := make(map[string]value, len(endToEnd))
	for _, d := range endToEnd {
		xs := raw[d.Name]
		v := value{Value: median(xs), Unit: d.Unit}
		if len(xs) > 1 {
			v.Reps = xs
		}
		out[d.Name] = v
	}
	return out
}
