package metrics

import (
	"testing"

	"flexftl/internal/rng"
	"flexftl/internal/sim"
)

// BenchmarkFinalize summarises 1.5 M single-page writes spread over about
// 99 k bandwidth windows of 50 ms. In "spread" flush latencies reach four
// windows, so windows close out of order and some close twice, and most
// latencies are stored; in "short" every latency is below countMax, as on a
// Varmail-like run of a device that keeps up, so every latency is counted.
// Each iteration summarises a fresh collector; building it is not timed.
//
//	go test -run '^$' -bench BenchmarkFinalize -benchtime 20x ./internal/metrics
func BenchmarkFinalize(b *testing.B) {
	const writes = 1_500_000
	for _, bc := range []struct {
		name   string
		maxLat int
	}{
		{"spread", 200_000},
		{"short", 4096},
	} {
		b.Run(bc.name, func(b *testing.B) {
			build := func() *Collector {
				c := NewCollector(4096, 50*sim.Millisecond)
				src := rng.New(3)
				for i := 0; i < writes; i++ {
					at := sim.Time(i) * 3300
					lat := sim.Time(src.Intn(bc.maxLat))
					c.RecordWrite(1, at, at+lat/4, at+lat)
				}
				return c
			}
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
	}
}
