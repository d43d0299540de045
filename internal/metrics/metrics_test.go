package metrics

import (
	"math"
	"runtime"
	"runtime/debug"
	"testing"

	"flexftl/internal/sim"
)

func TestNewCollectorPanics(t *testing.T) {
	for _, fn := range []func(){
		func() { NewCollector(0, sim.Second) },
		func() { NewCollector(4096, 0) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			fn()
		}()
	}
}

func TestCountsAndIOPS(t *testing.T) {
	c := NewCollector(4096, 50*sim.Millisecond)
	c.RecordRead(1, 0, 100)
	c.RecordWrite(2, 100, 150, 1100)
	c.AddActive(2 * sim.Second)
	res := c.Finalize()
	if res.Requests != 2 || res.Reads != 1 || res.Writes != 1 {
		t.Errorf("counts: %+v", res)
	}
	if res.PagesRead != 1 || res.PagesWrit != 2 {
		t.Errorf("pages: %+v", res)
	}
	if want := 1.0; res.IOPS != want {
		t.Errorf("IOPS = %v, want %v (2 reqs / 2s active)", res.IOPS, want)
	}
	if res.Makespan != 1100 {
		t.Errorf("makespan = %v", res.Makespan)
	}
}

func TestIOPSZeroActive(t *testing.T) {
	c := NewCollector(4096, 50*sim.Millisecond)
	c.RecordRead(1, 0, 10)
	if res := c.Finalize(); res.IOPS != 0 {
		t.Errorf("IOPS = %v without active time", res.IOPS)
	}
}

func TestNegativeActiveIgnored(t *testing.T) {
	c := NewCollector(4096, 50*sim.Millisecond)
	c.AddActive(-5 * sim.Second)
	if res := c.Finalize(); res.ActiveTime != 0 {
		t.Errorf("active = %v", res.ActiveTime)
	}
}

func TestBandwidthWindows(t *testing.T) {
	const window = 100 * sim.Millisecond
	c := NewCollector(1<<20, window) // 1 MB pages for easy arithmetic
	// Two writes completing in window 0: 3 MB over 0.1 s = 30 MB/s.
	c.RecordWrite(1, 0, 0, 10*sim.Millisecond)
	c.RecordWrite(2, 0, 0, 20*sim.Millisecond)
	// One write in window 5: 1 MB over 0.1 s = 10 MB/s.
	c.RecordWrite(1, 0, 0, 510*sim.Millisecond)
	res := c.Finalize()
	if res.BandwidthCDF.N() != 2 {
		t.Fatalf("windows = %d, want 2 (idle windows excluded)", res.BandwidthCDF.N())
	}
	if math.Abs(res.MeanWriteBandwidthMBs-20) > 1e-9 {
		t.Errorf("mean BW = %v, want 20", res.MeanWriteBandwidthMBs)
	}
	if math.Abs(res.BandwidthCDF.Max()-30) > 1e-9 {
		t.Errorf("max BW = %v, want 30", res.BandwidthCDF.Max())
	}
	if res.PeakWriteBandwidthMBs < 10 || res.PeakWriteBandwidthMBs > 30 {
		t.Errorf("peak BW = %v", res.PeakWriteBandwidthMBs)
	}
}

func TestResponseTimes(t *testing.T) {
	c := NewCollector(4096, 50*sim.Millisecond)
	c.RecordRead(1, 0, 100)         // 100 us
	c.RecordWrite(1, 0, 300, 10000) // ack at 300 -> resp 300 us
	res := c.Finalize()
	if res.ResponseTime.Min != 100 || res.ResponseTime.Max != 300 {
		t.Errorf("resp = %+v", res.ResponseTime)
	}
	if res.ReadResponse.Median != 100 {
		t.Errorf("read resp = %+v", res.ReadResponse)
	}
	if res.WriteResponse.Median != 300 {
		t.Errorf("write resp = %+v", res.WriteResponse)
	}
}

func TestTrimRecording(t *testing.T) {
	c := NewCollector(4096, 50*sim.Millisecond)
	c.RecordTrim(4, 100, 100)
	res := c.Finalize()
	if res.Trims != 1 || res.Requests != 1 {
		t.Errorf("trim counts: %+v", res)
	}
	if res.ResponseTime.Max != 0 {
		t.Errorf("trim response = %+v (metadata op should be free)", res.ResponseTime)
	}
}

// TestLatencyReport: the per-class percentile view splits ack from flush and
// computes exact order statistics.
func TestLatencyReport(t *testing.T) {
	c := NewCollector(4096, 50*sim.Millisecond)
	// 100 writes: ack latency i, flush latency i+1000, i = 1..100.
	for i := 1; i <= 100; i++ {
		c.RecordWrite(1, 0, sim.Time(i), sim.Time(i+1000))
	}
	c.RecordRead(1, 0, 500)
	c.RecordTrim(1, 10, 10)
	lat := c.Latency()
	if lat.WriteAck.Count != 100 || lat.WriteFlush.Count != 100 {
		t.Fatalf("write counts = %d/%d", lat.WriteAck.Count, lat.WriteFlush.Count)
	}
	if lat.WriteAck.Mean != 50.5 {
		t.Errorf("ack mean = %v, want 50.5", lat.WriteAck.Mean)
	}
	// Linear interpolation over 1..100: q maps to 1 + 99q.
	if got := lat.WriteAck.P50; got != 50.5 {
		t.Errorf("ack p50 = %v, want 50.5", got)
	}
	if got := lat.WriteAck.P99; got != 1+99*0.99 {
		t.Errorf("ack p99 = %v, want %v", got, 1+99*0.99)
	}
	if lat.WriteAck.Max != 100 {
		t.Errorf("ack max = %v", lat.WriteAck.Max)
	}
	if got := lat.WriteFlush.P50 - lat.WriteAck.P50; got != 1000 {
		t.Errorf("flush-ack p50 gap = %v, want 1000", got)
	}
	if lat.Read.Count != 1 || lat.Read.P999 != 500 || lat.Read.Max != 500 {
		t.Errorf("read percentiles = %+v", lat.Read)
	}
	if lat.Trim.Count != 1 || lat.Trim.Max != 0 {
		t.Errorf("trim percentiles = %+v", lat.Trim)
	}
	// Latency does not consume the collector: Finalize still sees everything.
	if res := c.Finalize(); res.Writes != 100 || res.Reads != 1 {
		t.Errorf("finalize after Latency: %+v", res)
	}
}

func TestLatencyEmpty(t *testing.T) {
	c := NewCollector(4096, 50*sim.Millisecond)
	lat := c.Latency()
	if lat != (LatencyReport{}) {
		t.Errorf("empty collector latency = %+v, want zero", lat)
	}
}

func TestResultString(t *testing.T) {
	c := NewCollector(4096, 50*sim.Millisecond)
	c.RecordWrite(1, 0, 1, 2)
	c.AddActive(sim.Second)
	if s := c.Finalize().String(); s == "" {
		t.Error("empty summary")
	}
}

// TestRecordWritesEachSampleOnce: an in-range sample is written into its
// chunk once, as 4 bytes, and never copied. Recording n samples into a class
// allocates their 4 bytes each plus at most one largest chunk of unused tail,
// in one allocation per chunk and one for the chunk list, so an
// append-and-grow store or an 8-byte sample fails here.
func TestRecordWritesEachSampleOnce(t *testing.T) {
	const n = 1_000_000
	// The counters are process-wide: a GC cycle or another goroutine can add
	// to them, never take away, so the least of a few tries is the
	// recording's own cost. GC stays off while counting.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	measure := func(record func(c *Collector, lat sim.Time)) (bytes, allocs uint64) {
		bytes, allocs = math.MaxUint64, math.MaxUint64
		for try := 0; try < 3; try++ {
			c := NewCollector(4096, sim.Second)
			runtime.GC()
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			for i := 0; i < n; i++ {
				record(c, sim.Time(i%100_000))
			}
			runtime.ReadMemStats(&after)
			bytes = min(bytes, after.TotalAlloc-before.TotalAlloc)
			allocs = min(allocs, after.Mallocs-before.Mallocs)
			if lat := c.Latency(); lat.Read.Count+lat.WriteFlush.Count+lat.Trim.Count != n {
				t.Fatalf("recorded %+v, want %d samples", lat, n)
			}
		}
		return bytes, allocs
	}
	perClassAllocs := uint64((n+lastChunk-1)/lastChunk + chunkSteps + 1)
	for _, tc := range []struct {
		name    string
		classes uint64
		record  func(c *Collector, lat sim.Time)
	}{
		{"read", 1, func(c *Collector, lat sim.Time) { c.RecordRead(1, 0, lat) }},
		// Every flush lands in bandwidth window 0: one map entry.
		{"write", 2, func(c *Collector, lat sim.Time) { c.RecordWrite(1, 0, lat/2, lat) }},
		{"trim", 1, func(c *Collector, lat sim.Time) { c.RecordTrim(1, 0, lat) }},
	} {
		bytes, allocs := measure(tc.record)
		if limit := tc.classes * (4*n + 4*lastChunk); bytes > limit {
			t.Errorf("%s: %d samples allocated %d bytes, want <= %d", tc.name, n, bytes, limit)
		}
		if limit := tc.classes * perClassAllocs; allocs > limit {
			t.Errorf("%s: %d samples made %d allocations, want <= %d", tc.name, n, allocs, limit)
		}
	}
}
