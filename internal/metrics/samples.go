package metrics

import (
	"math"
	"slices"

	"flexftl/internal/stats"
)

// A latency class stores the samples its count tier does not take in chunks
// of 4-byte samples: the first holds firstChunk samples, each next one twice
// as many up to lastChunk, and every chunk after that lastChunk. A chunk is
// allocated at its final size and never grown or copied, so a class costs 4
// bytes per stored sample plus the unused tail of its last chunk, and the
// radix sort's scratch is at most one chunk.
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

// countMax bounds the count tier: a latency class counts its samples in
// [0, countMax) µs instead of storing them.
const countMax = 4096

// tierBlock is the width of the count tier's prefix blocks: a rank query
// adds one block prefix and at most tierBlock counters.
const tierBlock = 64

// samples is one latency class, held as sorted runs of three kinds. A sample
// in [0, countMax) µs — most latencies of a device that keeps up — increments
// its counter in the count tier, a fixed array, so such samples cost no memory
// however many there are. A counter that is full passes further samples of
// its value on. Every other sample in [0, 2^32) µs is a uint32 in a list of
// chunks, each full but the last. Any other sample (negative, or 2^32 µs and
// longer) goes to wide, which is allocated only when one occurs.
// Summaries sort each chunk in place; sorted is the chunk sample count when a
// summary last sorted, so a chunk holding only older samples is still in
// order and only the chunk that took new ones sorts again. The wide run is
// sorted whole. The tier needs no sort: a summary indexes it once (index).
type samples struct {
	counts [countMax]uint32
	// As of the last summary: below[b] counts the tier's values below
	// b*tierBlock, counted is the tier's total, lo and hi its least and
	// greatest value (while counted > 0).
	below   [countMax / tierBlock]int
	counted int
	lo, hi  int64
	chunks  [][]uint32
	wide    []int64
	sorted  int
}

// add records one sample.
func (s *samples) add(x int64) {
	if uint64(x) < countMax && s.counts[x] < math.MaxUint32 {
		s.counts[x]++
		return
	}
	if uint64(x) > math.MaxUint32 {
		s.wide = append(s.wide, x)
		return
	}
	n := len(s.chunks)
	if n == 0 || len(s.chunks[n-1]) == cap(s.chunks[n-1]) {
		size := lastChunk
		if n < chunkSteps {
			size = firstChunk << n
		}
		if s.chunks == nil {
			s.chunks = make([][]uint32, 0, chunkHeaders)
		}
		s.chunks = append(s.chunks, make([]uint32, 0, size))
		n++
	}
	s.chunks[n-1] = append(s.chunks[n-1], uint32(x))
}

// sortSamples brings every run of every class into ascending order, and
// indexes every count tier, for Finalize and Latency.
func (c *Collector) sortSamples() {
	classes := [...]*samples{&c.read, &c.writeAck, &c.writeFlush, &c.trim}
	// Size the scratch once for the largest chunk the radix sort will see,
	// rather than growing it through every chunk size.
	largest := 0
	for _, s := range classes {
		s.eachUnsorted(func(chunk []uint32) {
			if len(chunk) >= radixMin {
				largest = max(largest, len(chunk))
			}
		})
	}
	if cap(c.scratch) < largest {
		c.scratch = make([]uint32, largest)
	}
	for _, s := range classes {
		s.index()
		s.eachUnsorted(func(chunk []uint32) { c.scratch = sortUint32(chunk, c.scratch) })
		s.sorted = s.chunkLen()
		if !slices.IsSorted(s.wide) {
			slices.Sort(s.wide)
		}
	}
}

// index builds the count tier's prefix counts and bounds.
func (s *samples) index() {
	n := 0
	for v, c := range s.counts {
		if v%tierBlock == 0 {
			s.below[v/tierBlock] = n
		}
		if c != 0 {
			if n == 0 {
				s.lo = int64(v)
			}
			s.hi = int64(v)
			n += int(c)
		}
	}
	s.counted = n
}

// tierAtMost counts the tier's values <= v, for v >= 0.
func (s *samples) tierAtMost(v int64) int {
	if v >= countMax-1 {
		return s.counted
	}
	b := int(v) / tierBlock
	n := s.below[b]
	for _, c := range s.counts[b*tierBlock : v+1] {
		n += int(c)
	}
	return n
}

// eachUnsorted calls f on every chunk holding a sample recorded since the
// last sort.
func (s *samples) eachUnsorted(f func(chunk []uint32)) {
	end := 0
	for _, chunk := range s.chunks {
		end += len(chunk)
		if end > s.sorted {
			f(chunk)
		}
	}
}

// chunkLen is the number of samples held in chunks.
func (s *samples) chunkLen() int {
	n := 0
	for _, chunk := range s.chunks {
		n += len(chunk)
	}
	return n
}

// radixMin is the length below which the comparison sort wins: a radix pass
// costs a 256-entry histogram whatever the input size.
const radixMin = 256

// sortUint32 sorts xs ascending: an LSD radix sort through scratch for large
// inputs, slices.Sort for the rest. It returns the scratch buffer, grown if it
// had to be, for the next call.
func sortUint32(xs, scratch []uint32) []uint32 {
	if len(xs) < radixMin {
		slices.Sort(xs)
		return scratch
	}
	var hist [4][256]int
	for _, x := range xs {
		hist[0][uint8(x)]++
		hist[1][uint8(x>>8)]++
		hist[2][uint8(x>>16)]++
		hist[3][uint8(x>>24)]++
	}
	if cap(scratch) < len(xs) {
		scratch = make([]uint32, len(xs))
	}
	// One pass per byte, lowest first, skipping a byte every key shares (the
	// bytes above the highest set bit, for one).
	src, dst := xs, scratch[:len(xs)]
	for p := range hist {
		h := &hist[p]
		shift := 8 * p
		if h[uint8(src[0]>>shift)] == len(src) {
			continue
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

// sortedRuns is a sample held as the ascending runs of one class or of
// several: their count tiers, chunks and wide runs. Its order statistics are
// those of the runs merged, found by rank so no merged copy is built.
type sortedRuns []*samples

func (r sortedRuns) len() int {
	n := 0
	for _, s := range r {
		n += s.counted + s.chunkLen() + len(s.wide)
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
// smallest v with more than k values <= v, by bisection on v.
func (r sortedRuns) at(k int) int64 {
	lo, hi := int64(math.MaxInt64), int64(math.MinInt64)
	for _, s := range r {
		if s.counted > 0 {
			lo, hi = min(lo, s.lo), max(hi, s.hi)
		}
		for _, chunk := range s.chunks {
			if len(chunk) > 0 {
				lo = min(lo, int64(chunk[0]))
				hi = max(hi, int64(chunk[len(chunk)-1]))
			}
		}
		if len(s.wide) > 0 {
			lo = min(lo, s.wide[0])
			hi = max(hi, s.wide[len(s.wide)-1])
		}
	}
	for lo < hi {
		// hi-lo may wrap as an int64; as a uint64 it is the true distance.
		mid := lo + int64(uint64(hi-lo)/2)
		if r.atMost(mid) > k {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return lo
}

// atMost counts the values <= v, with one binary search per run; v is below
// math.MaxInt64.
func (r sortedRuns) atMost(v int64) int {
	n := 0
	for _, s := range r {
		switch {
		case v >= math.MaxUint32:
			n += s.counted + s.chunkLen()
		case v >= 0:
			n += s.tierAtMost(v)
			for _, chunk := range s.chunks {
				i, _ := slices.BinarySearch(chunk, uint32(v)+1)
				n += i
			}
		}
		i, _ := slices.BinarySearch(s.wide, v+1)
		n += i
	}
	return n
}

// sum is the float64 sum of the merged runs taken in ascending order, bit for
// bit: the integer sum while Σ|x| < 2^53 (see percentilesOf), the merged
// float sum past it.
func (r sortedRuns) sum() float64 {
	var sum int64
	var abs uint64 // < 2^53 before each add, and each add is at most 2^63: cannot wrap
	for _, s := range r {
		var t uint64 // below countMax * countMax * 2^32 = 2^56
		for v, c := range s.counts {
			t += uint64(v) * uint64(c)
		}
		sum += int64(t)
		abs += t
		if abs >= 1<<53 {
			return r.mergedSum()
		}
		for _, chunk := range s.chunks {
			var c uint64 // at most lastChunk values below 2^32
			for _, x := range chunk {
				c += uint64(x)
			}
			sum += int64(c)
			abs += c
			if abs >= 1<<53 {
				return r.mergedSum()
			}
		}
		for _, x := range s.wide {
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

// mergedSum adds the runs' values as float64s in ascending order: a k-way
// merge of the k runs through a min-heap of their heads, O(n log k).
func (r sortedRuns) mergedSum() float64 {
	var h []runHead
	for _, s := range r {
		if s.counted > 0 {
			h = append(h, runHead{v: s.lo, rep: s.counts[s.lo] - 1, tier: s.counts[s.lo+1:]})
		}
		for _, chunk := range s.chunks {
			if len(chunk) > 0 {
				h = append(h, runHead{v: int64(chunk[0]), chunk: chunk[1:]})
			}
		}
		if len(s.wide) > 0 {
			h = append(h, runHead{v: s.wide[0], wide: s.wide[1:]})
		}
	}
	for i := len(h)/2 - 1; i >= 0; i-- {
		siftDown(h, i)
	}
	sum := 0.0
	for len(h) > 0 {
		sum += float64(h[0].v)
		if !h[0].next() {
			h[0] = h[len(h)-1]
			if h = h[:len(h)-1]; len(h) == 0 {
				break
			}
		}
		siftDown(h, 0)
	}
	return sum
}

// runHead is a run's smallest unread value v and the values after it, in one
// of chunk or wide, or for a count tier rep more copies of v and then the
// counters of v+1 onward in tier.
type runHead struct {
	v     int64
	chunk []uint32
	wide  []int64
	tier  []uint32
	rep   uint32
}

// next moves v to the run's next value, reporting false at its end.
func (h *runHead) next() bool {
	switch {
	case h.rep > 0:
		h.rep--
	case len(h.chunk) > 0:
		h.v, h.chunk = int64(h.chunk[0]), h.chunk[1:]
	case len(h.wide) > 0:
		h.v, h.wide = h.wide[0], h.wide[1:]
	default:
		for i, c := range h.tier {
			if c != 0 {
				h.v, h.rep, h.tier = h.v+int64(i)+1, c-1, h.tier[i+1:]
				return true
			}
		}
		return false
	}
	return true
}

// siftDown restores the min-heap order on v below h[i].
func siftDown(h []runHead, i int) {
	x := h[i]
	for {
		c := 2*i + 1
		if c >= len(h) {
			break
		}
		if c+1 < len(h) && h[c+1].v < h[c].v {
			c++
		}
		if x.v <= h[c].v {
			break
		}
		h[i] = h[c]
		i = c
	}
	h[i] = x
}
