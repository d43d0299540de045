package metrics

import (
	"fmt"
	"reflect"
	"sort"
	"testing"

	"flexftl/internal/rng"
	"flexftl/internal/sim"
	"flexftl/internal/stats"
)

// oracle is the collector as it was before samples became integers: every
// latency a float64, the all-requests array kept beside the per-class ones,
// and every summary a fresh copy-and-sort. It differs from that code in one
// line only: the bandwidth windows are sorted before their mean is taken, as
// in Finalize, because a sum in map order is not reproducible to the last bit.
type oracle struct {
	pageSize    int
	windowWidth sim.Time

	requests, reads, writes, trims int64
	pagesRead, pagesWrit           int64

	respTimes, readTimes, writeTimes, writeFlush, trimTimes []float64

	windowBytes map[int64]int64
	activeTime  sim.Time
	makespan    sim.Time
}

func newOracle(pageSize int, windowWidth sim.Time) *oracle {
	return &oracle{pageSize: pageSize, windowWidth: windowWidth, windowBytes: make(map[int64]int64)}
}

func (c *oracle) RecordRead(pages int, arrival, done sim.Time) {
	c.requests++
	c.reads++
	c.pagesRead += int64(pages)
	c.respTimes = append(c.respTimes, float64(done-arrival))
	c.readTimes = append(c.readTimes, float64(done-arrival))
	if done > c.makespan {
		c.makespan = done
	}
}

func (c *oracle) RecordWrite(pages int, arrival, ack, flushed sim.Time) {
	c.requests++
	c.writes++
	c.pagesWrit += int64(pages)
	c.respTimes = append(c.respTimes, float64(ack-arrival))
	c.writeTimes = append(c.writeTimes, float64(ack-arrival))
	c.writeFlush = append(c.writeFlush, float64(flushed-arrival))
	c.windowBytes[int64(flushed/c.windowWidth)] += int64(pages) * int64(c.pageSize)
	if flushed > c.makespan {
		c.makespan = flushed
	}
}

func (c *oracle) RecordTrim(pages int, arrival, done sim.Time) {
	c.requests++
	c.trims++
	c.respTimes = append(c.respTimes, float64(done-arrival))
	c.trimTimes = append(c.trimTimes, float64(done-arrival))
	if done > c.makespan {
		c.makespan = done
	}
}

func (c *oracle) AddActive(d sim.Time) {
	if d > 0 {
		c.activeTime += d
	}
}

func (c *oracle) Finalize() Result {
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
	var bws []float64
	for _, bytes := range c.windowBytes {
		mbs := float64(bytes) / (1 << 20) / c.windowWidth.Seconds()
		bws = append(bws, mbs)
	}
	sort.Float64s(bws)
	res.BandwidthCDF = stats.NewCDF(bws)
	if len(bws) > 0 {
		res.MeanWriteBandwidthMBs = stats.Mean(bws)
		res.PeakWriteBandwidthMBs = stats.Quantile(bws, 0.99)
	}
	res.ResponseTime = stats.Summarize(c.respTimes)
	res.ReadResponse = stats.Summarize(c.readTimes)
	res.WriteResponse = stats.Summarize(c.writeTimes)
	return res
}

func oraclePercentiles(xs []float64) Percentiles {
	if len(xs) == 0 {
		return Percentiles{}
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	return Percentiles{
		Count: int64(len(sorted)),
		Mean:  stats.Mean(sorted),
		P50:   stats.QuantileSorted(sorted, 0.50),
		P90:   stats.QuantileSorted(sorted, 0.90),
		P95:   stats.QuantileSorted(sorted, 0.95),
		P99:   stats.QuantileSorted(sorted, 0.99),
		P999:  stats.QuantileSorted(sorted, 0.999),
		Max:   sorted[len(sorted)-1],
	}
}

func (c *oracle) Latency() LatencyReport {
	return LatencyReport{
		Read:       oraclePercentiles(c.readTimes),
		WriteAck:   oraclePercentiles(c.writeTimes),
		WriteFlush: oraclePercentiles(c.writeFlush),
		Trim:       oraclePercentiles(c.trimTimes),
	}
}

// recorder is what the differential test drives on both sides.
type recorder interface {
	RecordRead(pages int, arrival, done sim.Time)
	RecordWrite(pages int, arrival, ack, flushed sim.Time)
	RecordTrim(pages int, arrival, done sim.Time)
	AddActive(d sim.Time)
}

// diffCase is one randomised input: a request count, which classes occur, and
// the distribution the latencies are drawn from.
type diffCase struct {
	n       int
	classes [3]bool // reads, writes, trims
	draw    func(src *rng.Source) sim.Time
	name    string
	// more is how many requests follow the first summaries; 0 means
	// min(n/3+1, 1000).
	more int
}

// latencyDraws are the value shapes the radix sort, the rank selection and
// the float mean each have an edge on.
var latencyDraws = []struct {
	name string
	draw func(src *rng.Source) sim.Time
}{
	{"dup16", func(src *rng.Source) sim.Time { return sim.Time(src.Intn(16)) }}, // duplicates and 0
	{"typical", func(src *rng.Source) sim.Time { return sim.Time(src.Intn(2_000_000)) }},
	{"wide", func(src *rng.Source) sim.Time { return sim.Time(src.Uint64() >> uint(1+src.Intn(60))) }},  // every radix pass count
	{"huge", func(src *rng.Source) sim.Time { return sim.Time(1<<50 + src.Uint64()>>14) }},              // > 2^32; sums > 2^53
	{"signed", func(src *rng.Source) sim.Time { return sim.Time(src.Intn(4_000_000)) - 2_000_000 }},     // negatives
	{"rare-negative", func(src *rng.Source) sim.Time { return sim.Time(src.Intn(1_000_000)) - 1 }},      // -1 once in a million
	{"extremes", func(src *rng.Source) sim.Time { return sim.Time(int64(src.Uint64())) / sim.Time(4) }}, // both signs, 61 bits
}

func diffCases() []diffCase {
	sizes := []int{0, 1, 2, 255, 256, 257}
	var cases []diffCase
	for i := 0; i < 224; i++ {
		d := latencyDraws[i%len(latencyDraws)]
		n := sizes[(i/len(latencyDraws))%len(sizes)]
		switch {
		case i%29 == 28: // 29 and len(latencyDraws) are coprime: each draw gets one
			n = 100_000
		case i%4 == 3:
			n = 300 + 37*i // past the radix threshold, a different size each time
		}
		mix := 1 + (i/3)%7 // every non-empty subset of {read, write, trim}
		cases = append(cases, diffCase{
			n:       n,
			classes: [3]bool{mix&1 != 0, mix&2 != 0, mix&4 != 0},
			draw:    d.draw,
			name:    fmt.Sprintf("%03d-%s-n%d-mix%d", i, d.name, n, mix),
		})
	}
	// Chunk boundaries, on single-class mixes so one class holds exactly n:
	// the first chunk, the largest chunk, the end of the first largest chunk
	// and three largest chunks past it, each ±1.
	firstLargestEnd := 2*lastChunk - firstChunk // 256 + 512 + ... + 65536
	boundary := []int{
		firstChunk - 1, firstChunk, firstChunk + 1,
		lastChunk - 1, lastChunk, lastChunk + 1,
		firstLargestEnd - 1, firstLargestEnd, firstLargestEnd + 1,
		3*lastChunk + 7,
	}
	for j, n := range boundary {
		for k, mix := range []int{1, 2, 4} {
			d := latencyDraws[(3*j+k)%len(latencyDraws)]
			cases = append(cases, diffCase{
				n:       n,
				classes: [3]bool{mix&1 != 0, mix&2 != 0, mix&4 != 0},
				draw:    d.draw,
				name:    fmt.Sprintf("%03d-%s-n%d-mix%d", len(cases), d.name, n, mix),
			})
		}
	}
	// Records after a summary that cross into a fresh chunk: a small one
	// and, with sums past 2^53, a largest one.
	for _, c := range []struct{ n, more, draw int }{
		{firstChunk - 10, 20, 1},
		{firstLargestEnd - 5, 10, 3},
	} {
		d := latencyDraws[c.draw]
		cases = append(cases, diffCase{
			n:       c.n,
			classes: [3]bool{true, false, false},
			draw:    d.draw,
			name:    fmt.Sprintf("%03d-%s-n%d-more%d", len(cases), d.name, c.n, c.more),
			more:    c.more,
		})
	}
	return cases
}

// feed records n requests of the case's class mix on r.
func (dc diffCase) feed(r recorder, src *rng.Source, n int) {
	var present []int
	for cl, on := range dc.classes {
		if on {
			present = append(present, cl)
		}
	}
	for i := 0; i < n; i++ {
		arrival := sim.Time(src.Intn(1 << 30))
		lat := dc.draw(src)
		switch present[src.Intn(len(present))] {
		case 0:
			r.RecordRead(1+src.Intn(8), arrival, arrival+lat)
		case 1:
			r.RecordWrite(1+src.Intn(8), arrival, arrival+lat/4, arrival+lat)
		case 2:
			r.RecordTrim(1+src.Intn(8), arrival, arrival+lat)
		}
		if i%64 == 0 {
			r.AddActive(lat)
		}
	}
}

func checkSame(t *testing.T, when string, c *Collector, o *oracle) {
	t.Helper()
	// DeepEqual compares floats with ==, and follows BandwidthCDF.
	if got, want := c.Finalize(), o.Finalize(); !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: Finalize\n got %+v\nwant %+v", when, got, want)
	}
	if got, want := c.Latency(), o.Latency(); got != want {
		t.Fatalf("%s: Latency\n got %+v\nwant %+v", when, got, want)
	}
}

// TestCollectorMatchesOracle: the integer sort-once collector and the float
// copy-and-sort one agree bit for bit, on every summary field, however the
// summaries and further recording interleave.
func TestCollectorMatchesOracle(t *testing.T) {
	for i, dc := range diffCases() {
		dc := dc
		t.Run(dc.name, func(t *testing.T) {
			const pageSize, window = 4096, 50 * sim.Millisecond
			c, o := NewCollector(pageSize, window), newOracle(pageSize, window)
			seed := uint64(1000 + i)
			dc.feed(c, rng.New(seed), dc.n)
			dc.feed(o, rng.New(seed), dc.n)
			if i%2 == 0 {
				// Latency first on half the cases: whichever summary runs
				// first is the one that sorts.
				if got, want := c.Latency(), o.Latency(); got != want {
					t.Fatalf("Latency before Finalize\n got %+v\nwant %+v", got, want)
				}
			}
			checkSame(t, "first summary", c, o)
			checkSame(t, "second summary", c, o)
			// More samples after a summary land behind a sorted prefix.
			more := dc.more
			if more == 0 {
				more = min(dc.n/3+1, 1000)
			}
			dc.feed(c, rng.New(seed+1), more)
			dc.feed(o, rng.New(seed+1), more)
			checkSame(t, "after more records", c, o)
		})
	}
}

// TestSummaryAllocations: summarising a million requests allocates a handful
// of buffers (the radix scratch, the bandwidth windows), not per-class copies.
func TestSummaryAllocations(t *testing.T) {
	const n = 1_000_000
	build := func() *Collector {
		c := NewCollector(4096, 50*sim.Millisecond)
		src := rng.New(1)
		for i := 0; i < n; i++ {
			at := sim.Time(i) * 150
			lat := sim.Time(src.Intn(2000))
			if i%2 == 0 {
				c.RecordRead(1, at, at+lat)
			} else {
				c.RecordWrite(1, at, at+lat/4, at+lat)
			}
		}
		return c
	}
	// AllocsPerRun calls once to warm up, then once measured; each call gets
	// a collector that has never been summarised.
	fresh := []*Collector{build(), build()}
	allocs := testing.AllocsPerRun(1, func() {
		c := fresh[0]
		fresh = fresh[1:]
		res := c.Finalize()
		lat := c.Latency()
		if res.Requests != n || lat.Read.Count != n/2 {
			t.Errorf("summary lost samples: %d requests, %d reads", res.Requests, lat.Read.Count)
		}
	})
	if allocs >= 10 {
		t.Errorf("Finalize+Latency on %d samples: %.0f allocations, want < 10", n, allocs)
	}
}

// TestBandwidthWindowRegister: flushes that stay among a few nearby windows
// — as a run's do — accumulate in the collector's open-window register and
// reach the map only when a flush to another window takes the slot or a
// summary is taken. Runs of one window, returns to an earlier window,
// zero-page writes (a window with no bytes still counts), negative and
// far-apart flush times, sweeps through more windows than the register has
// slots, windows that share a slot (i and i+64) taking turns, and summaries
// taken mid-window all give the oracle's per-window map.
func TestBandwidthWindowRegister(t *testing.T) {
	const pageSize, window = 4096, 50 * sim.Millisecond
	c, o := NewCollector(pageSize, window), newOracle(pageSize, window)
	both := func(pages int, flushed sim.Time) {
		c.RecordWrite(pages, 0, 0, flushed)
		o.RecordWrite(pages, 0, 0, flushed)
	}
	src := rng.New(3)
	at := sim.Time(0)
	for i := 0; i < 20000; i++ {
		at += sim.Time(src.Intn(int(window / 20)))
		both(1+src.Intn(4), at)
		switch i % 997 {
		case 5:
			both(2, at-3*window) // back to an earlier window
		case 9:
			both(0, at+7*window) // a window that only ever sees zero pages
		case 11:
			both(1, -window/2) // truncates into window 0
		case 13:
			both(1, -5*window)
		case 17:
			both(3, at+sim.Time(1)<<50) // far apart: a dense slice would not fit
		case 300:
			for j := 0; j < 3*windowSlots; j++ { // a sweep past every slot, twice
				both(1, at+sim.Time(j)*window)
			}
		case 700:
			for j := 0; j < 9; j++ { // one slot, two windows, taking turns
				both(1+j%2, at+sim.Time(j%2*windowSlots)*window)
				both(1, at-sim.Time(j%2*windowSlots)*window)
			}
		case 500:
			checkSame(t, fmt.Sprintf("summary at write %d", i), c, o)
		}
	}
	checkSame(t, "end", c, o)
	if len(c.windowBytes) != len(o.windowBytes) {
		t.Errorf("%d windows, oracle %d", len(c.windowBytes), len(o.windowBytes))
	}
}

// TestWideSamplesExact: samples a uint32 cannot hold (negative, or 2^32 µs
// and longer) go to the class's wide run and every summary still equals the
// oracle's, field for field, whether the mean stays on the integer sum or
// takes the merged float sum; a class with only in-range samples allocates no
// wide run.
func TestWideSamplesExact(t *testing.T) {
	for _, tc := range []struct {
		name string
		wide []sim.Time // drawn from at random, one read in 50
	}{
		{"boundary", []sim.Time{-1, -2, 1 << 32, 1<<32 + 1, -1000}},
		{"far", []sim.Time{-1 << 60, 1 << 60, 1 << 62, -1 << 40}}, // Σ|x| past 2^53
	} {
		t.Run(tc.name, func(t *testing.T) {
			const pageSize, window = 4096, 50 * sim.Millisecond
			c, o := NewCollector(pageSize, window), newOracle(pageSize, window)
			src := rng.New(11)
			wide := 0
			record := func(n int) {
				for i := 0; i < n; i++ {
					arrival := sim.Time(src.Intn(1 << 30))
					lat := sim.Time(src.Intn(2_000_000))
					switch i % 7 {
					case 0:
						lat = 0
					case 1:
						lat = 1<<32 - 1 // the largest in-range sample
					}
					read := lat
					if src.Intn(50) == 0 {
						read = tc.wide[src.Intn(len(tc.wide))]
						wide++
					}
					for _, r := range []recorder{c, o} {
						r.RecordRead(1, arrival, arrival+read)
						r.RecordWrite(2, arrival, arrival+lat/2, arrival+lat)
						r.RecordTrim(1, arrival, arrival+lat%100)
					}
				}
			}
			record(lastChunk + firstChunk) // more than one chunk per class
			checkSame(t, "first summary", c, o)
			record(1000)
			checkSame(t, "after more records", c, o)
			if len(c.read.wide) != wide || wide == 0 {
				t.Errorf("read wide run holds %d samples, want %d (> 0)", len(c.read.wide), wide)
			}
			for name, s := range map[string]*samples{"write-ack": &c.writeAck, "write-flush": &c.writeFlush, "trim": &c.trim} {
				if s.wide != nil {
					t.Errorf("%s: in-range class allocated a wide run of %d", name, len(s.wide))
				}
			}
		})
	}
}
