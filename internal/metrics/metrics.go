// Package metrics collects the measurements behind the paper's evaluation
// figures: IOPS over active time (Figure 8(a)), block erasure counts
// (Figure 8(b)) and windowed write-bandwidth distributions (Figure 8(c)),
// plus response-time statistics.
package metrics

import (
	"fmt"
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

	// One sample per request and class, integer microseconds. A request's
	// response time is its read, write-ack or trim sample, so the all-requests
	// summary is read off those three classes by rank instead of being stored
	// a second time.
	read, writeAck, writeFlush, trim samples
	// scratch is the radix sort's second buffer, at most one chunk, kept for
	// the next summary.
	scratch []uint32

	// Write-bandwidth windows: bytes of host write completions bucketed
	// into fixed windows of virtual time. Flush times run close together but
	// not in order (a flush alternates between a few recent windows), so
	// bytes accumulate in a direct-mapped register of open windows, slot
	// idx mod windowSlots, and reach the map only when a flush to another
	// window takes the slot or a summary is taken.
	windowBytes map[int64]int64
	windows     [windowSlots]window

	activeTime sim.Time
	makespan   sim.Time
}

// NewCollector builds a collector. pageSize is the logical page size in
// bytes; windowWidth is the bandwidth sampling window (50 ms reproduces the
// Figure 8(c) granularity well).
func NewCollector(pageSize int, windowWidth sim.Time) *Collector {
	if pageSize <= 0 || windowWidth <= 0 {
		panic("metrics: pageSize and windowWidth must be positive")
	}
	return &Collector{
		pageSize:    pageSize,
		windowWidth: windowWidth,
		windowBytes: make(map[int64]int64),
	}
}

// windowSlots is the size of the open-window register, a power of two.
const windowSlots = 64

// window is one open bandwidth window: bytes added since it last reached the
// map.
type window struct {
	open  bool
	idx   int64
	bytes int64
}

// addWindowBytes adds bytes to the window of a flush time.
func (c *Collector) addWindowBytes(flushed sim.Time, bytes int64) {
	idx := int64(flushed / c.windowWidth)
	w := &c.windows[uint64(idx)%windowSlots]
	if !w.open || w.idx != idx {
		c.closeWindow(w)
		*w = window{open: true, idx: idx}
	}
	w.bytes += bytes
}

// closeWindow moves an open window's bytes into the map.
func (c *Collector) closeWindow(w *window) {
	if w.open {
		c.windowBytes[w.idx] += w.bytes
		*w = window{}
	}
}

// RecordRead notes a completed read request.
func (c *Collector) RecordRead(pages int, arrival, done sim.Time) {
	c.requests++
	c.reads++
	c.pagesRead += int64(pages)
	c.read.add(int64(done - arrival))
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
	c.writeAck.add(int64(ack - arrival))
	c.writeFlush.add(int64(flushed - arrival))
	c.addWindowBytes(flushed, int64(pages)*int64(c.pageSize))
	if flushed > c.makespan {
		c.makespan = flushed
	}
}

// RecordTrim notes a completed discard request.
func (c *Collector) RecordTrim(pages int, arrival, done sim.Time) {
	c.requests++
	c.trims++
	c.trim.add(int64(done - arrival))
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
	for i := range c.windows {
		c.closeWindow(&c.windows[i])
	}
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
	var bws []float64 // nil when there are none, as NewCDF would hold
	if len(c.windowBytes) > 0 {
		bws = make([]float64, 0, len(c.windowBytes))
	}
	for _, bytes := range c.windowBytes {
		mbs := float64(bytes) / (1 << 20) / c.windowWidth.Seconds()
		bws = append(bws, mbs)
	}
	// Sorted before anything reads it: the map's iteration order must not
	// reach the mean's floating-point sum. The CDF adopts the sorted windows.
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
// from histogram buckets.
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
