package metrics

import (
	"math"
	"math/bits"
	"slices"

	"flexftl/internal/stats"
)

// A latency class is stored in chunks: the first holds firstChunk samples,
// each next one twice as many up to lastChunk, and every chunk after that
// lastChunk. A chunk is allocated at its final size and never grown or
// copied, so a class costs its 8 bytes per sample plus the unused tail of its
// last chunk, and the radix sort's scratch is at most one chunk.
const (
	firstChunk = 256
	lastChunk  = 1 << 16
	// chunkSteps is log2(lastChunk/firstChunk): the number of chunks smaller
	// than lastChunk.
	chunkSteps = 8
	// chunkHeaders is the chunk list's first capacity: 64 chunks hold 3.7 M
	// samples, so a class of a bench-sized run grows its list only once.
	chunkHeaders = 64
)

// samples is one latency class: a list of chunks, each full but the last.
// Summaries sort each chunk in place; sorted is the sample count when a
// summary last sorted, so a chunk holding only older samples is still in
// order and only the chunk that took new ones sorts again.
type samples struct {
	chunks [][]int64
	sorted int
}

// add records one sample.
func (s *samples) add(x int64) {
	n := len(s.chunks)
	if n == 0 || len(s.chunks[n-1]) == cap(s.chunks[n-1]) {
		size := lastChunk
		if n < chunkSteps {
			size = firstChunk << n
		}
		if s.chunks == nil {
			s.chunks = make([][]int64, 0, chunkHeaders)
		}
		s.chunks = append(s.chunks, make([]int64, 0, size))
		n++
	}
	s.chunks[n-1] = append(s.chunks[n-1], x)
}

// sortSamples brings every chunk of every class into ascending order for
// Finalize and Latency.
func (c *Collector) sortSamples() {
	classes := [...]*samples{&c.read, &c.writeAck, &c.writeFlush, &c.trim}
	// Size the scratch once for the largest chunk the radix sort will see,
	// rather than growing it through every chunk size.
	largest := 0
	for _, s := range classes {
		s.eachUnsorted(func(chunk []int64) {
			if len(chunk) >= radixMin {
				largest = max(largest, len(chunk))
			}
		})
	}
	if cap(c.scratch) < largest {
		c.scratch = make([]int64, largest)
	}
	for _, s := range classes {
		s.eachUnsorted(func(chunk []int64) { c.scratch = sortInt64(chunk, c.scratch) })
		s.sorted = s.len()
	}
}

// eachUnsorted calls f on every chunk holding a sample recorded since the
// last sort.
func (s *samples) eachUnsorted(f func(chunk []int64)) {
	end := 0
	for _, chunk := range s.chunks {
		end += len(chunk)
		if end > s.sorted {
			f(chunk)
		}
	}
}

// len is the number of samples recorded.
func (s *samples) len() int { return sortedRuns(s.chunks).len() }

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

// sortedRuns is a sample held as ascending runs (the chunks of one class or
// of several); its order statistics are those of the runs merged, found by
// rank so no merged copy is built.
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

// sum is the float64 sum of the merged runs taken in ascending order, bit for
// bit: the integer sum while Σ|x| < 2^53 (see percentilesOf), the merged
// float sum past it.
func (r sortedRuns) sum() float64 {
	var sum int64
	var abs uint64 // < 2^53 before each add and |x| <= 2^63: cannot wrap
	for _, run := range r {
		for _, x := range run {
			sum += x
			if x < 0 {
				abs += uint64(-x)
			} else {
				abs += uint64(x)
			}
			if abs >= 1<<53 {
				return r.mergedSum()
			}
		}
	}
	return float64(sum)
}

// mergedSum adds the runs' values as float64s in ascending order, walking
// all runs at once by their smallest unread value.
func (r sortedRuns) mergedSum() float64 {
	next := make([]int, len(r))
	sum := 0.0
	for {
		best := -1
		for i, run := range r {
			if next[i] < len(run) && (best < 0 || run[next[i]] < r[best][next[best]]) {
				best = i
			}
		}
		if best < 0 {
			return sum
		}
		sum += float64(r[best][next[best]])
		next[best]++
	}
}
