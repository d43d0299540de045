package metrics

import (
	"math"
	"math/bits"
	"slices"

	"flexftl/internal/stats"
)

// samples is one latency class. Summaries sort xs in place, once: sorted is
// the length xs had when it was last sorted, so a summary re-sorts only after
// more samples arrived.
type samples struct {
	xs     []int64
	sorted int
}

// sortSamples brings every class into ascending order for Finalize and
// Latency.
func (c *Collector) sortSamples() {
	for _, s := range [...]*samples{&c.read, &c.writeAck, &c.writeFlush, &c.trim} {
		if s.sorted != len(s.xs) {
			c.scratch = sortInt64(s.xs, c.scratch)
			s.sorted = len(s.xs)
		}
	}
}

// radixMin is the length below which the comparison sort wins: a radix pass
// costs a 256-entry histogram whatever the input size.
const radixMin = 256

// sortInt64 sorts xs ascending: an LSD radix sort through scratch for large
// non-negative inputs, slices.Sort for the rest (latencies are never
// negative, so the radix path need not order the sign bit). It returns the
// scratch buffer, grown if it had to be, for the next call.
func sortInt64(xs, scratch []int64) []int64 {
	if len(xs) < radixMin {
		slices.Sort(xs)
		return scratch
	}
	var or int64
	for _, x := range xs {
		or |= x
	}
	if or < 0 {
		slices.Sort(xs)
		return scratch
	}
	// One pass per byte, lowest first; the bytes above the highest set bit
	// are zero in every key and need none.
	passes := (bits.Len64(uint64(or)) + 7) / 8
	var hist [8][256]int
	for _, x := range xs {
		for p := 0; p < passes; p++ {
			hist[p][uint8(x>>(8*p))]++
		}
	}
	if cap(scratch) < len(xs) {
		scratch = make([]int64, len(xs))
	}
	src, dst := xs, scratch[:len(xs)]
	for p := 0; p < passes; p++ {
		h := &hist[p]
		shift := 8 * p
		if h[uint8(src[0]>>shift)] == len(src) {
			continue // every key has the same digit here
		}
		next := 0
		for d, n := range h {
			h[d] = next
			next += n
		}
		for _, x := range src {
			d := uint8(x >> shift)
			dst[h[d]] = x
			h[d]++
		}
		src, dst = dst, src
	}
	if &src[0] != &xs[0] {
		copy(xs, src)
	}
	return scratch
}

// sortedRuns is a sample held as up to three ascending runs; its order
// statistics are those of the runs merged, found by rank so no merged copy
// is built.
type sortedRuns [][]int64

func (r sortedRuns) len() int {
	n := 0
	for _, run := range r {
		n += len(run)
	}
	return n
}

// quantile is stats.QuantileSorted over the merged runs, bit for bit: the
// same position arithmetic on the same float64 order statistics.
func (r sortedRuns) quantile(q float64) float64 {
	lo, hi, frac := stats.QuantilePos(r.len(), q)
	return stats.Interpolate(float64(r.at(lo)), float64(r.at(hi)), frac)
}

// at returns the k-th smallest value (0-based) of the merged runs: the
// smallest v with more than k values <= v, by bisection on v. Each probe is
// one binary search per run.
func (r sortedRuns) at(k int) int64 {
	lo, hi := int64(math.MaxInt64), int64(math.MinInt64)
	for _, run := range r {
		if len(run) > 0 {
			lo = min(lo, run[0])
			hi = max(hi, run[len(run)-1])
		}
	}
	for lo < hi {
		// hi-lo may wrap as an int64; as a uint64 it is the true distance.
		mid := lo + int64(uint64(hi-lo)/2)
		atMost := 0
		for _, run := range r {
			n, _ := slices.BinarySearch(run, mid+1) // mid < hi, so mid+1 cannot overflow
			atMost += n
		}
		if atMost > k {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return lo
}
