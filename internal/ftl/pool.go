package ftl

import "fmt"

// GCPolicy selects the garbage-collection victim heuristic.
type GCPolicy int

const (
	// GCGreedy picks the block with the most invalid pages — the paper's
	// policy ("chooses a victim block with the largest number of invalid
	// pages").
	GCGreedy GCPolicy = iota
	// GCCostBenefit weighs invalid count by block age (time since it
	// became a GC candidate), the classic cost-benefit heuristic: old
	// blocks with moderate garbage beat young blocks still accumulating
	// invalidations. Exposed for ablation against the paper's choice.
	GCCostBenefit
)

// String names the policy.
func (p GCPolicy) String() string {
	if p == GCCostBenefit {
		return "cost-benefit"
	}
	return "greedy"
}

const nilLink = int32(-1)

// cbEntry is one cost-benefit heap element.
type cbEntry struct {
	blk   int32
	stamp int64
	score float64
}

// FreePool manages the free and full block lists of one chip. Every FTL
// keeps one per chip; the lists hold in-chip block indices.
//
// The full list is indexed for constant-time victim selection: an intrusive
// FIFO list preserves push order (and with it the deterministic tie-break of
// the original linear scan), and — once Bind attaches the chip's valid-page
// counts — every full block also sits on the doubly-linked bucket of its
// current valid count, each bucket kept in push-stamp order. A greedy pick is
// then the head of the lowest non-empty bucket, TakeFull is an O(1) unlink,
// and NoteValidChange re-buckets a block when the mapper invalidates one of
// its pages. Cost-benefit picks peek a lazily rebuilt max-heap over the same
// index.
type FreePool struct {
	chip   int
	Policy GCPolicy
	// Reference routes PickVictim through PickVictimReference — the
	// retained linear scan of the pre-index implementation — so tests and
	// benchmarks can compare the two pickers on identical state.
	Reference bool

	free IntQueue

	clock int64

	// Per-block index, the chip's window of newPools' flat arrays. All list
	// links are in-chip block ids; nilLink terminates.
	stamp    []int64 // logical age stamp when the block joined the full list
	inFull   []bool
	fifoNext []int32 // global full list in push order (== ascending stamp)
	fifoPrev []int32
	bktNext  []int32 // valid-count bucket, ascending stamp within a bucket
	bktPrev  []int32
	bucketOf []int32 // current bucket, nilLink when unbound or not full
	fifoHead int32
	fifoTail int32
	fullLen  int

	valid         []int32 // the chip's valid counts (nil until Bind)
	pagesPerBlock int
	bktHead       []int32 // [validCount] — pagesPerBlock+1 buckets
	bktTail       []int32
	minBucket     int // no non-empty bucket below this index

	heap      []cbEntry
	heapDirty bool
}

// NewFreePool builds a standalone pool over blocksPerChip blocks, every one
// free (the caller pops reservations itself).
func NewFreePool(chip, blocksPerChip int) *FreePool {
	p, _ := newPools(1, blocksPerChip, 0)
	p[0].chip = chip
	return p[0]
}

// newPools builds the pools of a chips × blocksPerChip device, every block
// free. Each per-block index field is one flat array by flat block number
// (nand.Layout.FlatOf), allocated once at any block count; a pool works on
// its chip's window. The free rings start at a power-of-two capacity that
// holds every block, the buckets are sized for pagesPerBlock (0 leaves them
// to Bind), and full — the flat full-list flags — is what the mapper tests.
func newPools(chips, blocksPerChip, pagesPerBlock int) (pools []*FreePool, full []bool) {
	n, ring, buckets := chips*blocksPerChip, 1, 0
	for ring < blocksPerChip {
		ring <<= 1
	}
	if pagesPerBlock > 0 {
		buckets = pagesPerBlock + 1
	}
	stamp, full, rings := make([]int64, n), make([]bool, n), make([]int, chips*ring)
	links := make([]int32, 5*n+2*chips*buckets)
	for i := range links {
		links[i] = nilLink
	}
	take := func(m int) []int32 { // the next m links
		w := links[:m:m]
		links = links[m:]
		return w
	}
	store, pools := make([]FreePool, chips), make([]*FreePool, chips)
	for c := range store {
		lo, hi, p := c*blocksPerChip, (c+1)*blocksPerChip, &store[c]
		*p = FreePool{chip: c, fifoHead: nilLink, fifoTail: nilLink,
			stamp: stamp[lo:hi:hi], inFull: full[lo:hi:hi], free: IntQueue{buf: rings[c*ring : (c+1)*ring]},
			fifoNext: take(blocksPerChip), fifoPrev: take(blocksPerChip), bktNext: take(blocksPerChip),
			bktPrev: take(blocksPerChip), bucketOf: take(blocksPerChip), bktHead: take(buckets), bktTail: take(buckets)}
		for b := 0; b < blocksPerChip; b++ {
			p.free.Push(b)
		}
		pools[c] = p
	}
	return pools, full
}

// Bind attaches the pool to valid, the chip's valid-page counts by in-chip
// block (its window of the mapper's), and builds the victim index.
// pagesPerBlock fixes the bucket range: a block's bucket is its current
// valid count in [0, pagesPerBlock]. The pool does not watch the counts —
// the owner must call NoteValidChange whenever a full block's count changes
// (ftl.Base wires this through Mapper.SetVictimIndex).
func (p *FreePool) Bind(pagesPerBlock int, valid []int32) {
	if pagesPerBlock <= 0 {
		panic("ftl: Bind with non-positive pagesPerBlock")
	}
	p.pagesPerBlock = pagesPerBlock
	p.valid = valid
	if len(p.bktHead) != pagesPerBlock+1 {
		p.bktHead = make([]int32, pagesPerBlock+1)
		p.bktTail = make([]int32, pagesPerBlock+1)
	}
	p.Reindex()
}

// Reindex rebuilds the bucket index from the current valid counts (after the
// owner swapped in a rebuilt mapper). Full-list membership and stamps are
// untouched.
func (p *FreePool) Reindex() {
	if p.valid == nil {
		return
	}
	for i := range p.bktHead {
		p.bktHead[i], p.bktTail[i] = nilLink, nilLink
	}
	p.minBucket = p.pagesPerBlock
	for b := p.fifoHead; b != nilLink; b = p.fifoNext[b] {
		p.bucketOf[b] = nilLink
		p.bucketAdd(b, int(p.valid[b]))
	}
	p.heapDirty = true
}

// FreeCount returns the number of free blocks.
func (p *FreePool) FreeCount() int { return p.free.Len() }

// FullCount returns the number of full (GC-candidate) blocks.
func (p *FreePool) FullCount() int { return p.fullLen }

// IsFull reports whether b is currently on the full (GC-candidate) list —
// i.e. a victim pick could reclaim it. The epoch planner uses this to track
// planned-but-unexecuted invalidations that would skew a GC pre-run.
func (p *FreePool) IsFull(b int) bool {
	return b >= 0 && b < len(p.inFull) && p.inFull[b]
}

// PopFree takes a free block, or (-1, false) when exhausted.
func (p *FreePool) PopFree() (int, bool) {
	if p.free.Len() == 0 {
		return -1, false
	}
	return p.free.PopFront(), true
}

// PopFreeWorn takes the free block extremizing wear: the most-erased block
// when mostWorn is true (cold-data destinations), the least-erased otherwise
// (hot-data destinations). Ties break toward the FIFO head so the choice is
// deterministic and degrades to PopFree on uniformly worn pools.
func (p *FreePool) PopFreeWorn(eraseCount func(blk int) int, mostWorn bool) (int, bool) {
	n := p.free.Len()
	if n == 0 {
		return -1, false
	}
	best, bestWear := 0, eraseCount(p.free.Front())
	for i := 1; i < n; i++ {
		w := eraseCount(p.free.At(i))
		if (mostWorn && w > bestWear) || (!mostWorn && w < bestWear) {
			best, bestWear = i, w
		}
	}
	return p.free.RemoveAt(best), true
}

// PushFree returns an erased block to the free list.
func (p *FreePool) PushFree(b int) { p.free.Push(b) }

// PushFull records a fully written block as a GC candidate.
func (p *FreePool) PushFull(b int) {
	if b < 0 || b >= len(p.inFull) {
		panic(fmt.Sprintf("ftl: block %d outside the %d blocks of chip %d", b, len(p.inFull), p.chip))
	}
	if p.inFull[b] {
		panic(fmt.Sprintf("ftl: block %d already on full list of chip %d", b, p.chip))
	}
	p.clock++
	p.stamp[b] = p.clock
	p.inFull[b] = true
	blk := int32(b)
	p.fifoPrev[blk], p.fifoNext[blk] = p.fifoTail, nilLink
	if p.fifoTail != nilLink {
		p.fifoNext[p.fifoTail] = blk
	} else {
		p.fifoHead = blk
	}
	p.fifoTail = blk
	p.fullLen++
	if p.valid != nil {
		p.bucketAdd(blk, int(p.valid[b]))
		p.heapDirty = true
	}
}

// TakeFull removes a specific block from the full list (it was chosen as a
// GC victim). It panics if the block is not there: collecting a block GC
// does not own corrupts the pools.
func (p *FreePool) TakeFull(b int) {
	if b < 0 || b >= len(p.inFull) || !p.inFull[b] {
		panic(fmt.Sprintf("ftl: block %d not in full list of chip %d", b, p.chip))
	}
	blk := int32(b)
	prev, next := p.fifoPrev[blk], p.fifoNext[blk]
	if prev != nilLink {
		p.fifoNext[prev] = next
	} else {
		p.fifoHead = next
	}
	if next != nilLink {
		p.fifoPrev[next] = prev
	} else {
		p.fifoTail = prev
	}
	p.fifoNext[blk], p.fifoPrev[blk] = nilLink, nilLink
	p.inFull[b] = false
	p.fullLen--
	if p.valid != nil {
		p.bucketRemove(blk)
		p.heapDirty = true
	}
}

// NoteValidChange moves a full block to the bucket of v, its current valid
// count. Calls for blocks not on the full list (active or free blocks whose
// counts move during programming) are ignored. The mapper makes the same
// test on the flat full flags itself and calls rebucket directly.
func (p *FreePool) NoteValidChange(b, v int) {
	if uint(b) < uint(len(p.inFull)) && p.inFull[b] && p.valid != nil {
		p.rebucket(int32(b), v)
	}
}

// rebucket moves a full block to bucket v unless it is already there.
func (p *FreePool) rebucket(blk int32, v int) {
	if int(p.bucketOf[blk]) == v {
		return
	}
	p.bucketRemove(blk)
	p.bucketAdd(blk, v)
	p.heapDirty = true
}

// bucketAdd links a block into bucket v, keeping the bucket in ascending
// stamp order so the head is always the oldest (FIFO) entry of that valid
// count — the exact tie-break of the reference linear scan. A freshly pushed
// block carries the globally newest stamp and lands at the tail in O(1); a
// re-bucketed block walks back from the tail past any younger entries.
func (p *FreePool) bucketAdd(blk int32, v int) {
	s := p.stamp[blk]
	after := p.bktTail[v]
	for after != nilLink && p.stamp[after] > s {
		after = p.bktPrev[after]
	}
	if after == nilLink {
		next := p.bktHead[v]
		p.bktPrev[blk], p.bktNext[blk] = nilLink, next
		if next != nilLink {
			p.bktPrev[next] = blk
		} else {
			p.bktTail[v] = blk
		}
		p.bktHead[v] = blk
	} else {
		next := p.bktNext[after]
		p.bktNext[after] = blk
		p.bktPrev[blk], p.bktNext[blk] = after, next
		if next != nilLink {
			p.bktPrev[next] = blk
		} else {
			p.bktTail[v] = blk
		}
	}
	p.bucketOf[blk] = int32(v)
	if v < p.minBucket {
		p.minBucket = v
	}
}

func (p *FreePool) bucketRemove(blk int32) {
	v := p.bucketOf[blk]
	if v == nilLink {
		return
	}
	prev, next := p.bktPrev[blk], p.bktNext[blk]
	if prev != nilLink {
		p.bktNext[prev] = next
	} else {
		p.bktHead[v] = next
	}
	if next != nilLink {
		p.bktPrev[next] = prev
	} else {
		p.bktTail[v] = prev
	}
	p.bktNext[blk], p.bktPrev[blk] = nilLink, nilLink
	p.bucketOf[blk] = nilLink
}

// FullBlocks returns the full list in push order (a fresh slice, for the
// block census and tests).
func (p *FreePool) FullBlocks() []int {
	out := make([]int, 0, p.fullLen)
	for b := p.fifoHead; b != nilLink; b = p.fifoNext[b] {
		out = append(out, int(b))
	}
	return out
}

// PickVictim returns the best GC candidate under the pool's policy, or
// (-1, false) when no candidate has at least one invalid page. Ties break
// toward the oldest (FIFO) full-list entry, keeping runs deterministic and
// byte-identical to the reference linear scan. The pool must be bound.
func (p *FreePool) PickVictim() (int, bool) {
	if p.valid == nil {
		panic(fmt.Sprintf("ftl: PickVictim on unbound pool of chip %d (call Bind first)", p.chip))
	}
	if p.Reference {
		return p.PickVictimReference()
	}
	if p.Policy == GCCostBenefit {
		if p.heapDirty {
			p.rebuildHeap()
		}
		if len(p.heap) == 0 {
			return -1, false
		}
		return int(p.heap[0].blk), true
	}
	// Greedy: head of the lowest non-empty bucket. The cursor only moves
	// forward here; inserts pull it back down. Bucket pagesPerBlock (fully
	// valid blocks) is never a candidate.
	for v := p.minBucket; v < p.pagesPerBlock; v++ {
		if h := p.bktHead[v]; h != nilLink {
			p.minBucket = v
			return int(h), true
		}
	}
	p.minBucket = p.pagesPerBlock
	return -1, false
}

// PickVictimReference is the pre-index linear scan over the full list in
// push order, kept verbatim as the determinism oracle for property tests and
// the baseline for the victim-pick scaling benchmark.
func (p *FreePool) PickVictimReference() (int, bool) {
	if p.valid == nil {
		panic(fmt.Sprintf("ftl: PickVictimReference on unbound pool of chip %d (call Bind first)", p.chip))
	}
	best := -1
	bestScore := 0.0
	for b := p.fifoHead; b != nilLink; b = p.fifoNext[b] {
		invalid := p.pagesPerBlock - int(p.valid[b])
		if invalid <= 0 {
			continue
		}
		var score float64
		switch p.Policy {
		case GCCostBenefit:
			score = p.costBenefitScore(invalid, p.stamp[b])
		default:
			score = float64(invalid)
		}
		if score > bestScore {
			best, bestScore = int(b), score
		}
	}
	if best == -1 {
		return -1, false
	}
	return best, true
}

// costBenefitScore is benefit/cost * age: u = valid fraction;
// (1-u)/(1+u) * age. The expression is shared by the reference scan and the
// heap so both compute bit-identical floats.
func (p *FreePool) costBenefitScore(invalid int, stamp int64) float64 {
	u := 1 - float64(invalid)/float64(p.pagesPerBlock)
	age := float64(p.clock - stamp + 1)
	return (1 - u) / (1 + u) * age
}

// rebuildHeap rebuilds the cost-benefit max-heap from the full list. Scores
// depend on the pool clock and on valid counts, both of which only change
// through PushFull / TakeFull / NoteValidChange — each sets heapDirty, so
// between mutations repeated picks peek the root for free.
func (p *FreePool) rebuildHeap() {
	p.heap = p.heap[:0]
	for b := p.fifoHead; b != nilLink; b = p.fifoNext[b] {
		invalid := p.pagesPerBlock - int(p.valid[b])
		if invalid <= 0 {
			continue
		}
		p.heap = append(p.heap, cbEntry{blk: b, stamp: p.stamp[b], score: p.costBenefitScore(invalid, p.stamp[b])})
	}
	for i := len(p.heap)/2 - 1; i >= 0; i-- {
		p.siftDown(i)
	}
	p.heapDirty = false
}

// cbBetter orders heap entries: higher score wins, ties go to the older
// stamp — the same winner the reference scan's strict `>` keeps.
func cbBetter(a, b cbEntry) bool {
	if a.score != b.score {
		return a.score > b.score
	}
	return a.stamp < b.stamp
}

func (p *FreePool) siftDown(i int) {
	h := p.heap
	n := len(h)
	for {
		l := 2*i + 1
		if l >= n {
			return
		}
		best := l
		if r := l + 1; r < n && cbBetter(h[r], h[l]) {
			best = r
		}
		if !cbBetter(h[best], h[i]) {
			return
		}
		h[i], h[best] = h[best], h[i]
		i = best
	}
}
