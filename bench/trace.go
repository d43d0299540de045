package main

import (
	"encoding/json"
	"math"
	"math/bits"
	"os"
	"time"

	"flexftl/internal/ftl"
	"flexftl/internal/nand"
	"flexftl/internal/sim"
	"flexftl/internal/workload"
)

// Tracing wraps the layer boundaries from outside the simulator: a decorator
// around the ftl.Host handed to ssd.New and one around the
// workload.Generator handed to Run. Every call is one span; spans aggregate
// in memory and the first maxRawSpans are kept raw for the trace file.

// spanOp names one (layer, op) aggregate.
type spanOp int

const (
	opNext spanOp = iota
	opWrite
	opGCWrite // writes during which Stats().ForegroundGCs advanced (also counted in opWrite)
	opRead
	opTrim
	opIdle
	opCount
)

var spanNames = [opCount]struct{ layer, op string }{
	opNext:    {"workload", "next"},
	opWrite:   {"ftl", "write"},
	opGCWrite: {"ftl", "gc_write"},
	opRead:    {"ftl", "read"},
	opTrim:    {"ftl", "trim"},
	opIdle:    {"ftl", "idle"},
}

const maxRawSpans = 50_000

// rawSpan is one recorded call. Req is the index of the request being
// serviced (the id its spans share); every span's parent is the Run span.
type rawSpan struct {
	Layer   string `json:"layer"`
	Op      string `json:"op"`
	StartNs int64  `json:"start_ns"`
	EndNs   int64  `json:"end_ns"`
	Req     int64  `json:"req"`
	Parent  string `json:"parent"`
}

// opAgg is the in-memory aggregate of one (layer, op): count, total, max and
// a log2 histogram of durations in nanoseconds.
type opAgg struct {
	count int64
	total time.Duration
	max   time.Duration
	hist  [64]int64 // hist[b] counts durations d with bits.Len64(d) == b
}

func (a *opAgg) add(d time.Duration) {
	a.count++
	a.total += d
	if d > a.max {
		a.max = d
	}
	a.hist[bits.Len64(uint64(max(d, 0)))]++
}

// quantileNs estimates the q-quantile from the log2 histogram, interpolating
// geometrically inside the bucket.
func (a *opAgg) quantileNs(q float64) float64 {
	if a.count == 0 {
		return 0
	}
	rank := q * float64(a.count)
	var seen float64
	for b, n := range a.hist {
		if n == 0 {
			continue
		}
		if seen+float64(n) >= rank {
			if b == 0 {
				return 0
			}
			lo := math.Ldexp(1, b-1)
			return math.Min(lo*math.Pow(2, (rank-seen)/float64(n)), float64(a.max))
		}
		seen += float64(n)
	}
	return float64(a.max)
}

// tracer collects the spans of one traced repetition.
type tracer struct {
	enabled bool // off during prefill, on for the steady phase
	origin  time.Time
	req     int64 // index of the request being serviced
	ops     [opCount]opAgg
	raw     []rawSpan // the first maxRawSpans spans
	runs    []rawSpan // one parent Run span per part

	// exhaustedAt is when the generator reported end of stream: the runner's
	// finalise phase runs from there to Run's return, summed in finalise.
	exhaustedAt time.Time
	finalise    time.Duration
	// peakUtil is the highest buffer utilization a write was admitted at.
	peakUtil float64
}

func newTracer() *tracer {
	return &tracer{raw: make([]rawSpan, 0, maxRawSpans)}
}

// start opens a steady phase: spans are recorded from here on, on one
// timeline that begins at the first part's steady phase.
func (t *tracer) start() {
	t.enabled = true
	if t.origin.IsZero() {
		t.origin = time.Now()
	}
}

// stop closes the steady phase opened by start: it records the part's Run
// span and the runner's finalise time.
func (t *tracer) stop(runStart, runEnd time.Time) {
	t.enabled = false
	t.runs = append(t.runs, rawSpan{
		Layer: "ssd", Op: "run", Req: -1,
		StartNs: runStart.Sub(t.origin).Nanoseconds(), EndNs: runEnd.Sub(t.origin).Nanoseconds(),
	})
	t.finalise += runEnd.Sub(t.exhaustedAt)
}

func (t *tracer) span(op spanOp, start, end time.Time) {
	t.ops[op].add(end.Sub(start))
	if len(t.raw) < maxRawSpans {
		n := spanNames[op]
		t.raw = append(t.raw, rawSpan{
			Layer: n.layer, Op: n.op,
			StartNs: start.Sub(t.origin).Nanoseconds(), EndNs: end.Sub(t.origin).Nanoseconds(),
			Req: t.req, Parent: "ssd.run",
		})
	}
}

// busy sums the wall time of the given ops.
func (t *tracer) busy(ops ...spanOp) time.Duration {
	var d time.Duration
	for _, op := range ops {
		d += t.ops[op].total
	}
	return d
}

// writeRaw dumps the raw spans, preceded by their parent Run spans.
func (t *tracer) writeRaw(path string) error {
	data, err := json.Marshal(struct {
		Runs  []rawSpan `json:"runs"`
		Spans []rawSpan `json:"spans"`
	}{t.runs, t.raw})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// spanCostNs calibrates the cost of one empty span on this machine.
func spanCostNs() float64 {
	const n = 200_000
	t := newTracer()
	t.start()
	t0 := time.Now()
	for i := 0; i < n; i++ {
		s := time.Now()
		t.span(opRead, s, time.Now())
	}
	return float64(time.Since(t0).Nanoseconds()) / n
}

// tracedGen times workload.Generator.Next and advances the request index.
type tracedGen struct {
	workload.Generator
	t *tracer
}

func (g *tracedGen) Next() (workload.Request, bool) {
	start := time.Now()
	req, ok := g.Generator.Next()
	end := time.Now()
	g.t.req++
	g.t.span(opNext, start, end)
	if !ok {
		g.t.exhaustedAt = end
	}
	return req, ok
}

// tracedHost times the ftl.Host surface. It forwards the optional interfaces
// the runner and the digest type-assert, so a traced run computes exactly
// what an untraced one does.
type tracedHost struct {
	ftl.Host
	t *tracer
}

// tracedFTL is tracedHost for MLC schemes: it also exposes the device, which
// makes it an ftl.FTL (the runner reads the reliability report through it).
type tracedFTL struct {
	*tracedHost
	dev *nand.Device
}

func (f tracedFTL) Device() *nand.Device { return f.dev }

// wrapHost interposes the tracer between the runner and h.
func (t *tracer) wrapHost(h ftl.Host) ftl.Host {
	th := &tracedHost{Host: h, t: t}
	if f, ok := h.(ftl.FTL); ok {
		return tracedFTL{tracedHost: th, dev: f.Device()}
	}
	return th
}

func (h *tracedHost) Write(lpn ftl.LPN, now sim.Time, util float64) (sim.Time, error) {
	if !h.t.enabled {
		return h.Host.Write(lpn, now, util)
	}
	gcs := h.Host.Stats().ForegroundGCs
	start := time.Now()
	done, err := h.Host.Write(lpn, now, util)
	end := time.Now()
	h.t.span(opWrite, start, end)
	if h.Host.Stats().ForegroundGCs != gcs {
		h.t.ops[opGCWrite].add(end.Sub(start))
	}
	if util > h.t.peakUtil {
		h.t.peakUtil = util
	}
	return done, err
}

func (h *tracedHost) Read(lpn ftl.LPN, now sim.Time) (sim.Time, error) {
	if !h.t.enabled {
		return h.Host.Read(lpn, now)
	}
	start := time.Now()
	done, err := h.Host.Read(lpn, now)
	h.t.span(opRead, start, time.Now())
	return done, err
}

func (h *tracedHost) Trim(lpn ftl.LPN, now sim.Time) (sim.Time, error) {
	if !h.t.enabled {
		return h.Host.Trim(lpn, now)
	}
	start := time.Now()
	done, err := h.Host.Trim(lpn, now)
	h.t.span(opTrim, start, time.Now())
	return done, err
}

func (h *tracedHost) Idle(now, until sim.Time) {
	if !h.t.enabled {
		h.Host.Idle(now, until)
		return
	}
	start := time.Now()
	h.Host.Idle(now, until)
	h.t.span(opIdle, start, time.Now())
}

// The optional interfaces. A host that lacks one gets the value the runner
// would have used without it.

func (h *tracedHost) ResetCounters() {
	if r, ok := h.Host.(interface{ ResetCounters() }); ok {
		r.ResetCounters()
	}
}

func (h *tracedHost) WearSpread() float64 {
	if w, ok := h.Host.(interface{ WearSpread() float64 }); ok {
		return w.WearSpread()
	}
	return 0
}

func (h *tracedHost) MappingHash() uint64 {
	if m, ok := h.Host.(interface{ MappingHash() uint64 }); ok {
		return m.MappingHash()
	}
	return 0
}

func (h *tracedHost) TotalFreeBlocks() int {
	if f, ok := h.Host.(interface{ TotalFreeBlocks() int }); ok {
		return f.TotalFreeBlocks()
	}
	return 0
}
