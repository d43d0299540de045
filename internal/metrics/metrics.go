// Package metrics collects the measurements behind the paper's evaluation
// figures: IOPS over active time (Figure 8(a)), block erasure counts
// (Figure 8(b)) and windowed write-bandwidth distributions (Figure 8(c)),
// plus response-time statistics.
package metrics

import (
	"cmp"
	"fmt"
	"math"
	"slices"

	"flexftl/internal/sim"
	"flexftl/internal/stats"
)

// Collector accumulates per-request measurements during a run.
type Collector struct {
	pageSize    int
	windowWidth sim.Time

	requests  int64
	reads     int64
	writes    int64
	trims     int64
	pagesRead int64
	pagesWrit int64

	// Each request's latencies by class, integer microseconds: counted when
	// below countMax, stored otherwise (see samples). A request's response
	// time is its read, write-ack or trim latency, so the all-requests
	// summary is read off those three classes by rank instead of being kept
	// a second time.
	read, writeAck, writeFlush, trim samples
	// arena is where the classes seal their full stages.
	arena arena

	// Write-bandwidth windows: pages of host write completions bucketed
	// into fixed windows of virtual time. Flush times run close together but
	// not in order (a flush alternates between a few recent windows), so
	// pages accumulate in a direct-mapped register of open windows, slot
	// idx mod windowSlots (bit slot of open set while the slot holds one),
	// and a window is appended to closed only when a flush to another window
	// takes its slot or a summary is taken. A flush that returns to a window
	// after it left closes that index again, so a summary sums equal indices.
	windows [windowSlots]window
	open    uint64
	closed  windowList

	activeTime sim.Time
	makespan   sim.Time
}

// NewCollector builds a collector. pageSize is the logical page size in
// bytes; windowWidth is the bandwidth sampling window of Figure 8(c), 10 ms
// in ssd.DefaultConfig.
func NewCollector(pageSize int, windowWidth sim.Time) *Collector {
	if pageSize <= 0 || windowWidth <= 0 {
		panic("metrics: pageSize and windowWidth must be positive")
	}
	return &Collector{pageSize: pageSize, windowWidth: windowWidth}
}

// windowSlots is the size of the open-window register: the bits of
// Collector.open.
const windowSlots = 64

// window is one bandwidth window: pages added to window idx while it was open.
type window struct{ idx, pages int64 }

// addWindowPages adds pages to the window of a flush time.
func (c *Collector) addWindowPages(flushed sim.Time, pages int64) {
	idx := int64(flushed / c.windowWidth)
	slot := uint64(idx) % windowSlots
	w := &c.windows[slot]
	switch {
	case c.open&(1<<slot) == 0:
		c.open |= 1 << slot
		*w = window{idx: idx}
	case w.idx != idx:
		c.closed.add(*w)
		*w = window{idx: idx}
	}
	w.pages += pages
}

// closeWindows moves every open window to the closed list.
func (c *Collector) closeWindows() {
	for slot := range c.windows {
		if c.open&(1<<slot) != 0 {
			c.closed.add(c.windows[slot])
		}
	}
	c.open = 0
}

// windowChunk is the length of every chunk of a windowList, a power of two.
const windowChunk = 1 << 12

// windowList holds closed windows. A window whose index and pages each fit
// a uint32 — every window of a run from time 0 — is an 8-byte entry in
// chunks of windowChunk, each allocated at its full size and never grown or
// copied; any other goes to wide, which is allocated only when one occurs.
type windowList struct {
	chunks [][]closedWindow
	n      int
	wide   []window
}

// closedWindow is a closed window in 8 bytes.
type closedWindow struct{ idx, pages uint32 }

func (l *windowList) add(w window) {
	if uint64(w.idx) > math.MaxUint32 || uint64(w.pages) > math.MaxUint32 {
		l.wide = append(l.wide, w)
		return
	}
	if l.n == len(l.chunks)*windowChunk {
		if l.chunks == nil {
			l.chunks = make([][]closedWindow, 0, mergeHeads)
		}
		l.chunks = append(l.chunks, make([]closedWindow, windowChunk))
	}
	*l.at(l.n) = closedWindow{uint32(w.idx), uint32(w.pages)}
	l.n++
}

func (l *windowList) at(i int) *closedWindow {
	return &l.chunks[uint(i)/windowChunk][uint(i)%windowChunk]
}

// mergeHeads is how many chunks eachIndex merges through a heap on the
// stack: 64 chunks, 262 144 windows — 43.7 minutes of the default 10 ms
// windows.
const mergeHeads = 64

// eachIndex calls f once per distinct window index, in index order, with the
// pages of every closed window of that index summed. Windows close in near
// index order, so each chunk is sorted in place and the chunks are merged
// through a min-heap of their heads; while a chunk's next window stays below
// the other heads it stays at the root, at two compares per window. Past
// mergeHeads chunks the heap is allocated. The wide windows, sorted, join
// the merge where their indices fall.
func (l *windowList) eachIndex(f func(w window)) {
	var stack [mergeHeads]int
	heads := stack[:0] // global position of each unexhausted chunk's next window
	if len(l.chunks) > mergeHeads {
		heads = make([]int, 0, len(l.chunks))
	}
	for c := 0; c*windowChunk < l.n; c++ {
		slices.SortFunc(l.chunks[c][:min(windowChunk, l.n-c*windowChunk)],
			func(a, b closedWindow) int { return cmp.Compare(a.idx, b.idx) })
		heads = append(heads, c*windowChunk)
	}
	key := func(i int) uint32 { return l.at(heads[i]).idx }
	down := func(i int) {
		for {
			m := i
			if c := 2*i + 1; c < len(heads) && key(c) < key(m) {
				m = c
			}
			if c := 2*i + 2; c < len(heads) && key(c) < key(m) {
				m = c
			}
			if m == i {
				return
			}
			heads[i], heads[m] = heads[m], heads[i]
			i = m
		}
	}
	for i := len(heads)/2 - 1; i >= 0; i-- {
		down(i)
	}
	slices.SortFunc(l.wide, func(a, b window) int { return cmp.Compare(a.idx, b.idx) })
	wide := l.wide
	var cur window
	first := true
	take := func(w window) {
		switch {
		case first:
			cur, first = w, false
		case w.idx == cur.idx:
			cur.pages += w.pages
		default:
			f(cur)
			cur = w
		}
	}
	for len(heads) > 0 {
		e := l.at(heads[0])
		w := window{int64(e.idx), int64(e.pages)}
		for len(wide) > 0 && wide[0].idx < w.idx {
			take(wide[0])
			wide = wide[1:]
		}
		take(w)
		if next := heads[0] + 1; next == l.n || next%windowChunk == 0 {
			heads[0] = heads[len(heads)-1]
			heads = heads[:len(heads)-1]
		} else {
			heads[0] = next
		}
		down(0)
	}
	for _, w := range wide {
		take(w)
	}
	if !first {
		f(cur)
	}
}

// RecordRead notes a completed read request.
func (c *Collector) RecordRead(pages int, arrival, done sim.Time) {
	c.requests++
	c.reads++
	c.pagesRead += int64(pages)
	c.read.add(int64(done-arrival), &c.arena)
	if done > c.makespan {
		c.makespan = done
	}
}

// RecordWrite notes a completed write request. ack is when the host was
// acknowledged (buffer admission of the last page); flushed is when the last
// page program finished — bandwidth windows use the flush times.
func (c *Collector) RecordWrite(pages int, arrival, ack, flushed sim.Time) {
	c.requests++
	c.writes++
	c.pagesWrit += int64(pages)
	c.writeAck.add(int64(ack-arrival), &c.arena)
	c.writeFlush.add(int64(flushed-arrival), &c.arena)
	c.addWindowPages(flushed, int64(pages))
	if flushed > c.makespan {
		c.makespan = flushed
	}
}

// RecordTrim notes a completed discard request.
func (c *Collector) RecordTrim(pages int, arrival, done sim.Time) {
	c.requests++
	c.trims++
	c.trim.add(int64(done-arrival), &c.arena)
	if done > c.makespan {
		c.makespan = done
	}
}

// AddActive accumulates active (non-idle) virtual time.
func (c *Collector) AddActive(d sim.Time) {
	if d > 0 {
		c.activeTime += d
	}
}

// Result is the summary of one run.
type Result struct {
	Requests   int64
	Reads      int64
	Writes     int64
	Trims      int64
	PagesRead  int64
	PagesWrit  int64
	ActiveTime sim.Time
	Makespan   sim.Time
	// IOPS is requests per second of active time — idle gaps (which all
	// FTLs share identically, being workload-driven) are excluded so the
	// comparison isolates service capability, like the paper's IOPS metric.
	IOPS float64
	// MeanWriteBandwidthMBs averages the nonzero write-bandwidth windows.
	MeanWriteBandwidthMBs float64
	// PeakWriteBandwidthMBs is the 99th-percentile window (robust peak).
	PeakWriteBandwidthMBs float64
	// BandwidthCDF is the empirical distribution of per-window write
	// bandwidth in MB/s, over windows with any write completion.
	BandwidthCDF *stats.CDF
	// ResponseTime summarizes per-request response times in microseconds;
	// ReadResponse and WriteResponse split it by request class (reads
	// complete at data return, writes at buffer acknowledgement).
	ResponseTime  stats.FiveNum
	ReadResponse  stats.FiveNum
	WriteResponse stats.FiveNum
}

// Finalize computes the run summary.
func (c *Collector) Finalize() Result {
	c.closeWindows()
	res := Result{
		Requests:   c.requests,
		Reads:      c.reads,
		Writes:     c.writes,
		Trims:      c.trims,
		PagesRead:  c.pagesRead,
		PagesWrit:  c.pagesWrit,
		ActiveTime: c.activeTime,
		Makespan:   c.makespan,
	}
	if c.activeTime > 0 {
		res.IOPS = float64(c.requests) / c.activeTime.Seconds()
	}
	// One bandwidth per window index, the pages of its closings summed.
	var bws []float64 // nil when there are none, as NewCDF would hold
	if n := c.closed.n + len(c.closed.wide); n > 0 {
		bws = make([]float64, 0, n)
	}
	c.closed.eachIndex(func(w window) {
		bws = append(bws, float64(w.pages*int64(c.pageSize))/(1<<20)/c.windowWidth.Seconds())
	})
	// Sorted before anything reads it, so the mean's floating-point sum runs
	// in one order. The CDF adopts the sorted windows.
	slices.Sort(bws)
	res.BandwidthCDF = stats.NewCDFSorted(bws)
	if len(bws) > 0 {
		res.MeanWriteBandwidthMBs = stats.Mean(bws)
		res.PeakWriteBandwidthMBs = stats.QuantileSorted(bws, 0.99)
	}
	c.sortSamples()
	res.ResponseTime = fiveNum(sortedRuns{&c.read, &c.writeAck, &c.trim})
	res.ReadResponse = fiveNum(sortedRuns{&c.read})
	res.WriteResponse = fiveNum(sortedRuns{&c.writeAck})
	return res
}

// Percentiles summarizes one latency class with the tail points the paper's
// latency claim turns on. All values are microseconds of virtual time,
// computed exactly (sorted order statistics with linear interpolation), not
// from histogram buckets wider than the 1 µs a sample is counted in.
type Percentiles struct {
	Count                    int64
	Mean, P50, P90, P95, P99 float64
	P999, Max                float64
}

// LatencyReport is the per-op-class percentile view of one run: reads
// complete at data return, write acks at buffer admission, write flushes at
// the last page program, trims at metadata completion.
type LatencyReport struct {
	Read       Percentiles
	WriteAck   Percentiles
	WriteFlush Percentiles
	Trim       Percentiles
}

// Latency computes the per-class percentile report from the raw per-request
// samples. Like Finalize it reads the collector without consuming it.
func (c *Collector) Latency() LatencyReport {
	c.sortSamples()
	return LatencyReport{
		Read:       percentilesOf(sortedRuns{&c.read}),
		WriteAck:   percentilesOf(sortedRuns{&c.writeAck}),
		WriteFlush: percentilesOf(sortedRuns{&c.writeFlush}),
		Trim:       percentilesOf(sortedRuns{&c.trim}),
	}
}

// percentilesOf summarizes one class from its sorted runs. The mean is
// taken as if by a float64 sum in ascending order, the order it has always
// been taken in, but without merging the runs: while Σ|x| < 2^53 every
// partial sum in any order is an integer of magnitude below 2^53, exactly
// representable, so each float addition is exact and the ascending sum
// equals the integer sum converted once. Only past that bound does
// sortedRuns.sum walk the runs in merged order.
func percentilesOf(runs sortedRuns) Percentiles {
	n := runs.len()
	if n == 0 {
		return Percentiles{}
	}
	return Percentiles{
		Count: int64(n),
		Mean:  runs.sum() / float64(n),
		P50:   runs.quantile(0.50),
		P90:   runs.quantile(0.90),
		P95:   runs.quantile(0.95),
		P99:   runs.quantile(0.99),
		P999:  runs.quantile(0.999),
		Max:   float64(runs.at(n - 1)),
	}
}

// fiveNum is stats.Summarize over the union of the runs.
func fiveNum(runs sortedRuns) stats.FiveNum {
	if runs.len() == 0 {
		return stats.FiveNum{}
	}
	return stats.FiveNum{
		Min:    runs.quantile(0),
		Q1:     runs.quantile(0.25),
		Median: runs.quantile(0.5),
		Q3:     runs.quantile(0.75),
		Max:    runs.quantile(1),
	}
}

// String renders a one-line summary.
func (r Result) String() string {
	return fmt.Sprintf("%d reqs (%dR/%dW) IOPS=%.0f meanBW=%.1fMB/s peakBW=%.1fMB/s active=%v",
		r.Requests, r.Reads, r.Writes, r.IOPS, r.MeanWriteBandwidthMBs, r.PeakWriteBandwidthMBs, r.ActiveTime)
}
