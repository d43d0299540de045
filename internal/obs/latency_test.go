package obs_test

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"flexftl/internal/metrics"
	"flexftl/internal/sim"
	"flexftl/internal/stats"
)

// Latency percentiles have one store, the exact sample collector of
// internal/metrics; these tests pin the properties a report relies on. The
// registry keeps counters and gauges only.

// readLatency records each value as one read's latency (arrival 0) and
// returns the collector's exact read percentiles.
func readLatency(values []int64) metrics.Percentiles {
	c := metrics.NewCollector(4096, 1000)
	for _, v := range values {
		c.RecordRead(1, 0, sim.Time(v))
	}
	return c.Latency().Read
}

// TestHistIndexRoundTrip: a sample reads back exactly on either side of the
// boundary between the 1 µs count tier and the stored chunks (4 095 / 4 096
// µs), at the chunks' 2^32 µs edge, and far beyond it.
func TestHistIndexRoundTrip(t *testing.T) {
	for _, v := range []int64{0, 1, 31, 32, 4094, 4095, 4096, 4097, 1 << 20, math.MaxUint32, math.MaxUint32 + 1, 1<<40 + 12345} {
		p := readLatency([]int64{v})
		if p.Count != 1 || p.P50 != float64(v) || p.Max != float64(v) || p.Mean != float64(v) {
			t.Errorf("one sample %d reads back as %+v", v, p)
		}
	}
	// Straddling the tier boundary, the two sides keep their order and the
	// median interpolates between them.
	p := readLatency([]int64{4096, 4095})
	if p.P50 != 4095.5 || p.Max != 4096 {
		t.Errorf("{4095, 4096}: p50 %v max %v, want 4095.5 and 4096", p.P50, p.Max)
	}
}

// TestHistogramStatsAndQuantiles: count, mean, max and percentiles of 1..1000
// are the exact interpolated order statistics.
func TestHistogramStatsAndQuantiles(t *testing.T) {
	var values []int64
	for v := int64(1); v <= 1000; v++ {
		values = append(values, v)
	}
	p := readLatency(values)
	if p.Count != 1000 || p.Max != 1000 || p.Mean != 500.5 {
		t.Errorf("count/max/mean = %d/%v/%v, want 1000/1000/500.5", p.Count, p.Max, p.Mean)
	}
	for _, c := range []struct {
		name      string
		got, want float64
	}{{"p50", p.P50, 500.5}, {"p90", p.P90, 900.1}, {"p95", p.P95, 950.05}, {"p99", p.P99, 990.01}, {"p999", p.P999, 999.001}} {
		if math.Abs(c.got-c.want) > 1e-9 {
			t.Errorf("%s = %v, want %v", c.name, c.got, c.want)
		}
	}
}

// TestHistogramQuantilePropertyRandom: on random inputs from every storage
// tier (count tier, chunks, the wide run past 2^32 µs) the collector's
// percentiles equal a sort oracle's, bit for bit.
func TestHistogramQuantilePropertyRandom(t *testing.T) {
	distributions := []struct {
		name string
		gen  func(r *rand.Rand) int64
	}{
		{"uniform", func(r *rand.Rand) int64 { return r.Int63n(1_000_000) }},
		{"exponential", func(r *rand.Rand) int64 { return int64(r.ExpFloat64() * 5000) }},
		{"heavy_tail", func(r *rand.Rand) int64 { return int64(math.Pow(10, r.Float64()*11)) }},
		{"tiny", func(r *rand.Rand) int64 { return r.Int63n(8) }},
		{"constant", func(r *rand.Rand) int64 { return 4242 }},
	}
	for _, dist := range distributions {
		for seed := int64(1); seed <= 5; seed++ {
			r := rand.New(rand.NewSource(seed))
			values := make([]int64, 1+r.Intn(5000))
			for i := range values {
				values[i] = dist.gen(r)
			}
			p := readLatency(values)
			sorted := make([]float64, len(values))
			for i, v := range values {
				sorted[i] = float64(v)
			}
			slices.Sort(sorted)
			for _, c := range []struct {
				q   float64
				got float64
			}{{0.5, p.P50}, {0.9, p.P90}, {0.95, p.P95}, {0.99, p.P99}, {0.999, p.P999}, {1, p.Max}} {
				if want := stats.QuantileSorted(sorted, c.q); c.got != want {
					t.Fatalf("%s seed=%d n=%d q=%v: got %v, oracle %v", dist.name, seed, len(values), c.q, c.got, want)
				}
			}
			if p.Count != int64(len(values)) {
				t.Fatalf("%s seed=%d: count %d, want %d", dist.name, seed, p.Count, len(values))
			}
		}
	}
}

// TestHistogramNegativeClampsToZero: the name is kept from the bucketed
// histogram, which clamped a negative value to 0. The exact store does not
// clamp: a negative latency (a completion before its arrival, which only a
// broken caller can produce) is kept as it is, so a report shows it instead
// of hiding it as 0.
func TestHistogramNegativeClampsToZero(t *testing.T) {
	p := readLatency([]int64{-5})
	if p.Count != 1 || p.P50 != -5 || p.Max != -5 || p.Mean != -5 {
		t.Errorf("negative sample reads back as %+v, want -5 kept exactly", p)
	}
	p = readLatency([]int64{-5, 7})
	if p.P50 != 1 || p.Max != 7 {
		t.Errorf("{-5, 7}: p50 %v max %v, want 1 and 7", p.P50, p.Max)
	}
}
