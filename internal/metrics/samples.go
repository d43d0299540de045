package metrics

import (
	"math"
	"math/bits"
	"slices"

	"flexftl/internal/stats"
)

// A latency class stores the samples its count tier does not take in a stage
// of 4-byte samples. The stage is allocated for firstStage samples and, while
// smaller than stageLen, grows when full to twice its size plus firstStage
// (768, 1 792) and then to stageLen; a full stageLen stage is sealed: sorted,
// packed into a run (packedRun) and emptied for the next samples. A packed
// run keeps its samples in blocks of blockLen.
const (
	firstStage = 256
	stageLen   = 4096
	blockLen   = 128
	// firstRuns is a class's first run-list capacity: 64 runs hold 262 144
	// samples.
	firstRuns = 64
	// A collector's runs are carved from slabs of slabMin words, each next
	// slab twice the last up to slabMax (256 KiB). slabMin holds the largest
	// run, 2 193 words (see packedRun).
	slabMin = 1 << 12
	slabMax = 1 << 15
)

// countMax bounds the count tier: a latency class counts its samples in
// [0, countMax) µs instead of storing them.
const countMax = 4096

// tierBlock is the width of the count tier's prefix blocks: a rank query
// adds one block prefix and at most tierBlock counters.
const tierBlock = 64

// samples is one latency class, held as sorted runs of four kinds. A sample
// in [0, countMax) µs — most latencies of a device that keeps up — increments
// its counter in the count tier, a fixed array, so such samples cost no memory
// however many there are. A counter that is full passes further samples of
// its value on. Every other sample in [0, 2^32) µs is a uint32 in the stage
// until the stage is sealed into runs, each holding stageLen samples. Any
// other sample (negative, or 2^32 µs and longer) goes to wide, which is
// allocated only when one occurs. Summaries sort the stage and the wide run
// in place; the runs were sorted when sealed. The tier needs no sort: a
// summary indexes it once (index).
type samples struct {
	counts [countMax]uint32
	// As of the last summary: below[b] counts the tier's values below
	// b*tierBlock, counted is the tier's total, lo and hi its least and
	// greatest value (while counted > 0).
	below   [countMax / tierBlock]int
	counted int
	lo, hi  int64
	runs    []packedRun
	stage   []uint32
	wide    []int64
	// cur holds a rank search's cursors in runs: those it stands at, then
	// those of its current probe (see sortedRuns.at).
	cur []runCursor
}

// add records one sample, sealing a full stage into a.
func (s *samples) add(x int64, a *arena) {
	if uint64(x) < countMax && s.counts[x] < math.MaxUint32 {
		s.counts[x]++
		return
	}
	s.store(x, a)
}

// store keeps a sample the count tier does not take.
func (s *samples) store(x int64, a *arena) {
	if uint64(x) > math.MaxUint32 {
		s.wide = append(s.wide, x)
		return
	}
	if len(s.stage) == cap(s.stage) {
		switch c := cap(s.stage); {
		case c == 0:
			s.stage = make([]uint32, 0, firstStage)
		case c < stageLen:
			s.stage = append(make([]uint32, 0, min(2*c+firstStage, stageLen)), s.stage...)
		default:
			s.seal(a)
		}
	}
	s.stage = append(s.stage, uint32(x))
}

// seal sorts the full stage, packs it into a run and empties it.
func (s *samples) seal(a *arena) {
	if a.scratch == nil {
		a.scratch = make([]uint32, stageLen)
	}
	sortUint32(s.stage, a.scratch)
	if s.runs == nil {
		s.runs = make([]packedRun, 0, firstRuns)
	}
	s.runs = append(s.runs, pack(s.stage, a))
	s.stage = s.stage[:0]
}

// stored is the number of samples held in runs and the stage.
func (s *samples) stored() int { return len(s.runs)*stageLen + len(s.stage) }

// arena is what sealing needs, shared by a collector's classes: the radix
// sort's scratch, allocated at stageLen on the first seal, and the unused
// tail of the slab runs are carved from. A slab is allocated zeroed and its
// words are handed out once, so a run is packed into zero words.
type arena struct {
	scratch []uint32
	free    []uint64
	slab    int // words of the last slab allocated
}

// reserve returns at least n <= slabMin zero words, of which the caller
// then takes the first few (take).
func (a *arena) reserve(n int) []uint64 {
	if len(a.free) < n {
		a.slab = min(max(2*a.slab, slabMin), slabMax)
		a.free = make([]uint64, a.slab)
	}
	return a.free
}

// take carves the first n reserved words.
func (a *arena) take(n int) []uint64 {
	w := a.free[:n:n]
	a.free = a.free[n:]
	return w
}

// sortSamples brings the stage and wide run of every class into ascending
// order, and indexes every count tier, for Finalize and Latency.
func (c *Collector) sortSamples() {
	for _, s := range [...]*samples{&c.read, &c.writeAck, &c.writeFlush, &c.trim} {
		s.index()
		if !slices.IsSorted(s.stage) {
			slices.Sort(s.stage)
		}
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

// sortUint32 sorts xs ascending by an LSD radix sort through scratch, which
// is at least as long as xs; xs is not empty.
func sortUint32(xs, scratch []uint32) {
	var hist [4][256]int
	for _, x := range xs {
		hist[0][uint8(x)]++
		hist[1][uint8(x>>8)]++
		hist[2][uint8(x>>16)]++
		hist[3][uint8(x>>24)]++
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
}

// packedRun is one sealed stage: n sorted values, Rice-coded in blocks of
// blockLen. Its words are
//
//	[0]                 greatest value << 32 | n
//	[1]                 sum of the values
//	[runMeta+b]         block b's header: its first value, its code c and
//	                    the bit offset of its deltas in the delta words
//	[runMeta+blocks:]   the delta words: each block's deltas between
//	                    consecutive values, packed low bit first
//
// A block of equal values (or of one value) has code 0 and no delta bits.
// Otherwise its deltas are Rice-coded with parameter k = c-1 = ⌊log2 m⌋ for
// the mean delta m = (last-first)/(len-1) (k = 0 when m is 0): a delta x is
// its low k bits and x>>k in unary, as zeros closed by a one. A block stores
// the low bits of its deltas first, k bits each, then their unary parts, so
// the zeros before the i-th one are the high parts of deltas 1 to i summed.
// The high parts of a block sum to at most (last-first)>>k < 2(len-1), so a
// block costs under (len-1)(k+3) bits, and a run under 32*127*34 bits and
// 2+32 header words, 2 193 words. Consecutive values of a sorted stage differ
// by about m, so a block of saturated latencies packs to about 12 bits a
// value.
type packedRun []uint64

const (
	runMeta   = 2
	codeShift = 32 // header bits 32-37: the code, 0 to 32
	offShift  = 38 // header bits 38-63: the delta offset, below 2^26
)

// riceCode is the code of a sorted block: 0 when its values are equal,
// else k+1 for the Rice parameter k of its mean delta.
func riceCode(blk []uint32) uint {
	last := len(blk) - 1
	if blk[last] == blk[0] {
		return 0
	}
	return max(1, uint(bits.Len32((blk[last]-blk[0])/uint32(last))))
}

// pack packs xs, sorted, 1 <= len(xs) <= stageLen, into a run carved from a.
func pack(xs []uint32, a *arena) packedRun {
	n := len(xs)
	nb := (n + blockLen - 1) / blockLen
	var bound uint // bits of deltas at most
	var sum uint64
	for b := range nb {
		blk := xs[b*blockLen : min(n, (b+1)*blockLen)]
		if c := riceCode(blk); c > 0 {
			bound += uint(len(blk)-1) * (c + 2)
		}
	}
	for _, x := range xs {
		sum += uint64(x)
	}
	r := packedRun(a.reserve(runMeta + nb + int((bound+63)/64)))
	r[0] = uint64(xs[n-1])<<32 | uint64(n)
	r[1] = sum
	d := r[runMeta+nb:]
	var p uint
	for b := range nb {
		blk := xs[b*blockLen : min(n, (b+1)*blockLen)]
		c := riceCode(blk)
		r[runMeta+b] = uint64(blk[0]) | uint64(c)<<codeShift | uint64(p)<<offShift
		if c == 0 {
			continue
		}
		// One pass writes the low parts from p and the unary parts from u.
		// The words are zero: a unary part needs only its one.
		k := (c - 1) & 63 // below 32: the shifts need no check for 64 or more
		mask := uint64(1)<<k - 1
		u := p + uint(len(blk)-1)*k
		for i := 1; i < len(blk); i++ {
			x := uint64(blk[i] - blk[i-1])
			lo, s := x&mask, p%64
			d[p/64] |= lo << s
			if s+k > 64 {
				d[p/64+1] |= lo >> (64 - s)
			}
			p += k
			u += uint(x >> k)
			d[u/64] |= 1 << (u % 64)
			u++
		}
		p = u
	}
	return a.take(runMeta + nb + int((p+63)/64))
}

func (r packedRun) len() int      { return int(uint32(r[0])) }
func (r packedRun) last() uint32  { return uint32(r[0] >> 32) }
func (r packedRun) sum() uint64   { return r[1] }
func (r packedRun) first() uint32 { return uint32(r[runMeta]) }
func (r packedRun) blocks() int   { return (r.len() + blockLen - 1) / blockLen }

// deltas is the run's delta words.
func (r packedRun) deltas() []uint64 { return r[runMeta+r.blocks():] }

// block returns block b's first value, its code and the bit offset of its
// deltas.
func (r packedRun) block(b int) (first uint32, c, p uint) {
	h := r[runMeta+b]
	return uint32(h), uint(h>>codeShift) & 63, uint(h >> offShift)
}

// bitsAt returns the 64 bits of d from bit p on, zeros past its end.
func bitsAt(d []uint64, p uint) uint64 {
	i, s := p/64, p%64
	x := d[i] >> s
	if s != 0 && i+1 < uint(len(d)) {
		x |= d[i+1] << (64 - s)
	}
	return x
}

// runCursor is where a rank search stands in a packed run: value i of
// block b, x, is at most every value the search will still probe, and at is
// the bit past the unary part of its delta. i = 0 says only that no value the
// search probes lies in an earlier block.
type runCursor struct {
	b, i  int32
	at, x uint32
}

// atMost counts the run's values <= v, for a v no less than the value at c,
// and moves c to the last of them: a binary search on the first values of
// the blocks from c's on, then a decode of v's block, from c if c is in it,
// up to its first value past v.
func (r packedRun) atMost(v uint32, c *runCursor) int {
	n := r.len()
	switch {
	case v < r.first():
		return 0
	case v >= r.last():
		return n
	}
	// Block lo's first value is <= v, block hi's (if any) is past it.
	lo, hi := int(c.b), r.blocks()
	for hi-lo > 1 {
		m := int(uint(lo+hi) >> 1)
		if uint32(r[runMeta+m]) <= v {
			lo = m
		} else {
			hi = m
		}
	}
	first, code, p := r.block(lo)
	base, end := lo*blockLen, min(blockLen, n-lo*blockLen)
	if code == 0 {
		return base + end
	}
	k := code - 1
	if c.b != int32(lo) || c.i == 0 {
		*c = runCursor{b: int32(lo), at: uint32(p + uint(end-1)*k), x: first}
	}
	*c = scan(r.deltas(), p, k, v, end-1, *c)
	return base + 1 + int(c.i)
}

// scan reads on from c the deltas of a block with Rice parameter k, whose n
// low parts start at bit p of d and whose unary parts follow, up to its first
// value past v, and returns the cursor at the last value <= v.
func scan(d []uint64, p, k uint, v uint32, n int, c runCursor) runCursor {
	i := int(c.i)
	if i == n {
		return c
	}
	k &= 63 // k < 32: the shifts need no check for 64 or more
	mask := uint64(1)<<k - 1
	at, x := uint(c.at), c.x
	win, w := at, bitsAt(d, at) // w holds the unread ones from bit win on
	for ; i < n; i++ {
		for w == 0 {
			win += 64
			w = bitsAt(d, win)
		}
		one := win + uint(bits.TrailingZeros64(w))
		w &= w - 1
		y := x + uint32((one-at)<<k) + uint32(bitsAt(d, p+uint(i)*k)&mask)
		if y > v {
			break
		}
		at, x = one+1, y
	}
	return runCursor{c.b, int32(i), uint32(at), x}
}

// next returns value i of the run, 0 < i < r.len(), from value i-1, prev.
// *p is the bit of the unary part of value i's delta: next sets it at a
// block's first delta and moves it past each unary part it reads.
func (r packedRun) next(i int, prev uint32, p *uint) uint32 {
	b, j := i/blockLen, uint(i%blockLen)
	first, c, off := r.block(b)
	switch {
	case j == 0:
		return first
	case c == 0:
		return prev
	}
	d, k := r.deltas(), c-1
	if j == 1 {
		*p = off + uint(min(blockLen, r.len()-b*blockLen)-1)*k
	}
	one := *p
	w := bitsAt(d, one)
	for w == 0 {
		one += 64
		w = bitsAt(d, one)
	}
	one += uint(bits.TrailingZeros64(w))
	high := one - *p
	*p = one + 1
	return prev + uint32(high<<k) + uint32(bitsAt(d, off+(j-1)*k)&(1<<k-1))
}

// sortedRuns is a sample held as the ascending runs of one class or of
// several: their count tiers, packed runs, stages and wide runs. Its order
// statistics are those of the runs merged, found by rank so no merged copy is
// built.
type sortedRuns []*samples

func (r sortedRuns) len() int {
	n := 0
	for _, s := range r {
		n += s.counted + s.stored() + len(s.wide)
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
		for _, run := range s.runs {
			lo, hi = min(lo, int64(run.first())), max(hi, int64(run.last()))
		}
		if len(s.stage) > 0 {
			lo = min(lo, int64(s.stage[0]))
			hi = max(hi, int64(s.stage[len(s.stage)-1]))
		}
		if len(s.wide) > 0 {
			lo = min(lo, s.wide[0])
			hi = max(hi, s.wide[len(s.wide)-1])
		}
	}
	// Every value the search probes from here on is at least lo, so a probe
	// that moves lo past it moves each run's cursor to the probe's place, and
	// a probe decodes a run from its cursor on.
	for _, s := range r {
		if m := len(s.runs); len(s.cur) < 2*m {
			s.cur = make([]runCursor, 2*m)
		} else {
			clear(s.cur[:m])
		}
	}
	for lo < hi {
		// hi-lo may wrap as an int64; as a uint64 it is the true distance.
		mid := lo + int64(uint64(hi-lo)/2)
		if r.atMost(mid) > k {
			hi = mid
		} else {
			lo = mid + 1
			for _, s := range r {
				m := len(s.runs)
				copy(s.cur[:m], s.cur[m:2*m])
			}
		}
	}
	return lo
}

// atMost counts the values <= v, with one search per run from its cursor,
// leaving the probe's cursors after the runs' own; v is below math.MaxInt64.
func (r sortedRuns) atMost(v int64) int {
	n := 0
	for _, s := range r {
		m := len(s.runs)
		probe := s.cur[m : 2*m]
		copy(probe, s.cur[:m])
		switch {
		case v >= math.MaxUint32:
			n += s.counted + s.stored()
		case v >= 0:
			n += s.tierAtMost(v)
			for j, run := range s.runs {
				n += run.atMost(uint32(v), &probe[j])
			}
			i, _ := slices.BinarySearch(s.stage, uint32(v)+1)
			n += i
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
		var t uint64 // the tier adds below countMax * countMax * 2^32 = 2^56
		for v, c := range s.counts {
			t += uint64(v) * uint64(c)
		}
		// A run or the stage adds below stageLen * 2^32 = 2^44, so t cannot
		// wrap before it reaches 2^53.
		for _, run := range s.runs {
			if t += run.sum(); t >= 1<<53 {
				return r.mergedSum()
			}
		}
		for _, x := range s.stage {
			t += uint64(x)
		}
		sum += int64(t)
		abs += t
		if abs >= 1<<53 {
			return r.mergedSum()
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
		for _, run := range s.runs {
			h = append(h, runHead{v: int64(run.first()), run: run, left: run.len() - 1})
		}
		if len(s.stage) > 0 {
			h = append(h, runHead{v: int64(s.stage[0]), stage: s.stage[1:]})
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

// runHead is a run's smallest unread value v and the values after it: in
// stage or wide; in run, whose next left values follow v; or, for a count
// tier, rep more copies of v and then the counters of v+1 onward in tier.
type runHead struct {
	v     int64
	stage []uint32
	wide  []int64
	tier  []uint32
	rep   uint32
	run   packedRun
	left  int
	pos   uint // the bit of run's next delta
}

// next moves v to the run's next value, reporting false at its end.
func (h *runHead) next() bool {
	switch {
	case h.rep > 0:
		h.rep--
	case h.left > 0:
		h.v = int64(h.run.next(h.run.len()-h.left, uint32(h.v), &h.pos))
		h.left--
	case len(h.stage) > 0:
		h.v, h.stage = int64(h.stage[0]), h.stage[1:]
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
