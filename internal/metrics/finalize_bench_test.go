package metrics

import (
	"testing"

	"flexftl/internal/rng"
	"flexftl/internal/sim"
)

// BenchmarkFinalize records and summarises 1.5 M single-page writes arriving
// 3.3 ms apart, over about 99 k bandwidth windows of 50 ms. In "spread" flush
// latencies are drawn below 200 ms and reach four windows, so windows close
// out of order and some close twice, and most latencies are stored; in
// "saturated" latencies grow with arrival time, 1 ms a write plus a jitter of
// up to 65 ms, as on a device the host outruns, and every latency is stored;
// in "short" every latency is below countMax, as on a Varmail-like run of a
// device that keeps up, so every latency is counted. A shape's summary
// sub-benchmark times Finalize on a fresh collector built untimed; its
// "record-" sub-benchmark times the recording, sealing and packing included,
// and reports what the record keeps: bits/sample, the bits of the packed runs
// per sample they hold (0 when every latency is counted), and B/window, the
// bytes of the closed-window list per window it holds.
//
//	go test -run '^$' -bench BenchmarkFinalize -benchtime 20x ./internal/metrics
func BenchmarkFinalize(b *testing.B) {
	const writes = 1_500_000
	for _, bc := range []struct {
		name string
		lat  func(i int, src *rng.Source) sim.Time
	}{
		{"spread", func(_ int, src *rng.Source) sim.Time { return sim.Time(src.Intn(200_000)) }},
		{"saturated", func(i int, src *rng.Source) sim.Time { return sim.Time(1000*i + src.Intn(65_536)) }},
		{"short", func(_ int, src *rng.Source) sim.Time { return sim.Time(src.Intn(4096)) }},
	} {
		build := func() *Collector {
			c := NewCollector(4096, 50*sim.Millisecond)
			src := rng.New(3)
			for i := 0; i < writes; i++ {
				at := sim.Time(i) * 3300
				lat := bc.lat(i, src)
				c.RecordWrite(1, at, at+lat/4, at+lat)
			}
			return c
		}
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				c := build()
				b.StartTimer()
				if res := c.Finalize(); res.Writes != writes {
					b.Fatalf("summary holds %d writes, want %d", res.Writes, writes)
				}
			}
		})
		b.Run("record-"+bc.name, func(b *testing.B) {
			b.ReportAllocs()
			var c *Collector
			for i := 0; i < b.N; i++ {
				if c = build(); c.writes != writes {
					b.Fatalf("recorded %d writes, want %d", c.writes, writes)
				}
			}
			b.ReportMetric(storedBits(c), "bits/sample")
			l := &c.closed
			b.ReportMetric(float64(8*windowChunk*len(l.chunks)+16*cap(l.wide))/float64(l.n+len(l.wide)), "B/window")
		})
	}
}

// storedBits is the bits of c's packed runs per sample they hold, 0 if none.
func storedBits(c *Collector) float64 {
	words, n := 0, 0
	for _, s := range []*samples{&c.read, &c.writeAck, &c.writeFlush, &c.trim} {
		for _, r := range s.runs {
			words += len(r)
			n += r.len()
		}
	}
	if n == 0 {
		return 0
	}
	return 64 * float64(words) / float64(n)
}
