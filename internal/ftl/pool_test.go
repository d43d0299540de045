package ftl

import (
	"slices"
	"testing"

	"flexftl/internal/core"
	"flexftl/internal/nand"
	"flexftl/internal/rng"
)

func TestIntQueue(t *testing.T) {
	var q IntQueue
	if q.Len() != 0 {
		t.Fatal("zero queue not empty")
	}
	for i := 0; i < 20; i++ {
		q.Push(i)
	}
	if q.Len() != 20 || q.Front() != 0 || q.At(19) != 19 {
		t.Fatalf("Len=%d Front=%d At(19)=%d", q.Len(), q.Front(), q.At(19))
	}
	for i := 0; i < 20; i++ {
		if v := q.PopFront(); v != i {
			t.Fatalf("PopFront = %d, want %d", v, i)
		}
	}
	// Interleaved push/pop exercises wraparound: push two, pop one, so the
	// head chases the tail around the ring while the queue slowly grows.
	next := 0
	pushed := 0
	for i := 0; i < 100; i++ {
		q.Push(pushed)
		pushed++
		q.Push(pushed)
		pushed++
		if v := q.PopFront(); v != next {
			t.Fatalf("wraparound PopFront = %d, want %d", v, next)
		}
		next++
	}
	for q.Len() > 0 {
		if v := q.PopFront(); v != next {
			t.Fatalf("drain PopFront = %d, want %d", v, next)
		}
		next++
	}
	if next != pushed {
		t.Fatalf("drained %d values, pushed %d", next, pushed)
	}

	defer func() {
		if recover() == nil {
			t.Error("PopFront of empty queue did not panic")
		}
	}()
	q.PopFront()
}

func TestIntQueueAtPanics(t *testing.T) {
	var q IntQueue
	q.Push(1)
	defer func() {
		if recover() == nil {
			t.Error("At out of range did not panic")
		}
	}()
	q.At(1)
}

// TestIntQueueBounded pins the fix for the old `s = s[1:]` idiom: a queue
// cycled through many push/pop rounds must not grow its backing array beyond
// a small multiple of its peak occupancy.
func TestIntQueueBounded(t *testing.T) {
	var q IntQueue
	for round := 0; round < 10000; round++ {
		for i := 0; i < 4; i++ {
			q.Push(round*4 + i)
		}
		for i := 0; i < 4; i++ {
			q.PopFront()
		}
	}
	if q.Cap() > 16 {
		t.Errorf("queue capacity grew to %d over push/pop cycles (peak occupancy 4)", q.Cap())
	}
}

// TestIntQueueMatchesSlice drives random Push/PopFront/At/RemoveAt sequences
// against a plain-slice model. Each seed cycles through phases that favour
// pushes, then balance them with pops, then drain, so every run grows the
// ring several times and wraps the head around it; after every op the queue
// must agree with the model value for value and its capacity must be a power
// of two (the invariant the ring's mask relies on).
func TestIntQueueMatchesSlice(t *testing.T) {
	const opsPerSeed = 12000
	for seed := uint64(1); seed <= 4; seed++ {
		r := rng.New(seed)
		var q IntQueue
		var model []int
		grows, wraps := 0, 0
		cycle := 300 * int(seed+1) // ops per phase
		for op := 0; op < opsPerSeed; op++ {
			// Per 100 ops a phase pushes pushPct values and takes out
			// (100-pushPct)*4/5: grow by ~28, churn at ~+1, drain by ~26.
			pushPct := 60
			switch (op / cycle) % 3 {
			case 1:
				pushPct = 45
			case 2:
				pushPct = 30
			}
			capBefore, headBefore := q.Cap(), q.head
			switch k := r.Intn(100); {
			case len(model) == 0 || k < pushPct:
				v := r.Intn(1 << 20)
				q.Push(v)
				model = append(model, v)
			case k < pushPct+(100-pushPct)*3/5:
				if got := q.PopFront(); got != model[0] {
					t.Fatalf("seed %d op %d: PopFront = %d, want %d", seed, op, got, model[0])
				}
				model = model[1:]
			case k < pushPct+(100-pushPct)*4/5:
				i := r.Intn(len(model))
				if got := q.RemoveAt(i); got != model[i] {
					t.Fatalf("seed %d op %d: RemoveAt(%d) = %d, want %d", seed, op, i, got, model[i])
				}
				model = append(model[:i], model[i+1:]...)
			default:
				i := r.Intn(len(model))
				if got := q.At(i); got != model[i] {
					t.Fatalf("seed %d op %d: At(%d) = %d, want %d", seed, op, i, got, model[i])
				}
			}
			if q.Cap() != capBefore {
				grows++
			}
			if q.Cap() == capBefore && q.head < headBefore && q.Len() > 0 {
				wraps++
			}
			if c := q.Cap(); c&(c-1) != 0 {
				t.Fatalf("seed %d op %d: capacity %d is not a power of two", seed, op, c)
			}
			if q.Len() != len(model) {
				t.Fatalf("seed %d op %d: Len = %d, want %d", seed, op, q.Len(), len(model))
			}
			for i, want := range model {
				if got := q.At(i); got != want {
					t.Fatalf("seed %d op %d: At(%d) = %d, want %d", seed, op, i, got, want)
				}
			}
		}
		if grows < 3 || wraps < 3 {
			t.Fatalf("seed %d: %d growths and %d head wrap-arounds; the sequence must cross both", seed, grows, wraps)
		}
	}
}

// TestFreePoolFreeListBounded is the same boundedness property for the pool's
// free ring under many erase/alloc cycles.
func TestFreePoolFreeListBounded(t *testing.T) {
	p := NewFreePool(0, 8)
	for i := 0; i < 10000; i++ {
		b, ok := p.PopFree()
		if !ok {
			t.Fatal("pool exhausted")
		}
		p.PushFree(b)
	}
	if p.free.Cap() > 32 {
		t.Errorf("free ring capacity grew to %d over %d cycles of an 8-block pool", p.free.Cap(), 10000)
	}
	if p.FreeCount() != 8 {
		t.Errorf("free count = %d, want 8", p.FreeCount())
	}
}

// bindSynthetic attaches a pool to a plain valid-count slice, the standalone
// harness the index tests and benchmarks use in place of a full Mapper.
func bindSynthetic(p *FreePool, ppb int, valid []int32) {
	p.Bind(ppb, valid)
}

// TestPickVictimCostBenefitIndex is the dedicated cost-benefit coverage:
// age weighting, zero-invalid skip, and heap/bucket maintenance through
// NoteValidChange, each pick cross-checked against the reference scan.
func TestPickVictimCostBenefitIndex(t *testing.T) {
	const ppb = 12
	valid := make([]int32, 8)
	p := NewFreePool(0, 8)
	p.Policy = GCCostBenefit
	bindSynthetic(p, ppb, valid)

	check := func(label string) int {
		t.Helper()
		got, gotOK := p.PickVictim()
		want, wantOK := p.PickVictimReference()
		if got != want || gotOK != wantOK {
			t.Fatalf("%s: indexed pick = %d,%v, reference = %d,%v", label, got, gotOK, want, wantOK)
		}
		return got
	}

	// A fully valid block is never a candidate.
	b0, _ := p.PopFree()
	valid[b0] = ppb
	p.PushFull(b0)
	if v, ok := p.PickVictim(); ok {
		t.Fatalf("fully valid block picked: %d", v)
	}
	check("only-valid")

	// Age weighting: an old block with moderate garbage must beat a young
	// block with slightly more garbage once enough clock ticks separate them.
	old, _ := p.PopFree()
	valid[old] = ppb / 2
	p.PushFull(old)
	for i := 0; i < 40; i++ { // advance the pool clock
		bx, _ := p.PopFree()
		valid[bx] = ppb
		p.PushFull(bx)
		p.TakeFull(bx)
		p.PushFree(bx)
	}
	young, _ := p.PopFree()
	valid[young] = ppb/2 - 1
	p.PushFull(young)
	if v := check("age-weighting"); v != old {
		t.Fatalf("cost-benefit picked %d, want aged block %d", v, old)
	}

	// Re-bucketing: invalidate the young block down to fully invalid. Its
	// (1-u)/(1+u) factor hits the maximum of 1.0, but at age 1 its score (1)
	// still loses to the old block's (age ~42 x factor 1/3) — age dominates,
	// and the index must track the re-bucketing without disagreeing.
	for valid[young] > 0 {
		valid[young]--
		p.NoteValidChange(young, int(valid[young]))
	}
	if v := check("note-valid-change"); v != old {
		t.Fatalf("after full invalidation picked %d, want still-aged %d", v, old)
	}

	// Taking the winner exposes the runner-up, still in agreement.
	p.TakeFull(old)
	if v := check("after-take"); v != young {
		t.Fatalf("after taking %d picked %d, want %d", old, v, young)
	}
}

// TestCostBenefitTieBreak pins the heap comparator's tie rule: equal scores
// resolve to the older stamp, matching the reference scan's strict `>` (which
// keeps the earliest full-list entry on a tie).
func TestCostBenefitTieBreak(t *testing.T) {
	older := cbEntry{blk: 3, stamp: 5, score: 1.0}
	younger := cbEntry{blk: 7, stamp: 9, score: 1.0}
	if !cbBetter(older, younger) {
		t.Error("equal scores: older stamp must win")
	}
	if cbBetter(younger, older) {
		t.Error("equal scores: younger stamp must lose")
	}
	if !cbBetter(cbEntry{score: 2, stamp: 9}, cbEntry{score: 1, stamp: 5}) {
		t.Error("higher score must win regardless of stamp")
	}
}

// TestGreedyTieBreakFIFO pins the greedy tie rule through the index path:
// among equally dirty blocks the earliest-pushed one wins.
func TestGreedyTieBreakFIFO(t *testing.T) {
	const ppb = 16
	valid := make([]int32, 8)
	p := NewFreePool(0, 8)
	bindSynthetic(p, ppb, valid)
	first, _ := p.PopFree()
	second, _ := p.PopFree()
	valid[first], valid[second] = ppb/2, ppb/2
	p.PushFull(first)
	p.PushFull(second)
	v, ok := p.PickVictim()
	if !ok || v != first {
		t.Fatalf("greedy tie picked %d, want first-pushed %d", v, first)
	}
	if rv, rok := p.PickVictimReference(); rv != v || rok != ok {
		t.Fatalf("reference disagrees on tie: %d vs %d", rv, v)
	}
	// Demote the second block into a lower bucket than the first: it must
	// now win even though it is younger.
	valid[second] = ppb / 4
	p.NoteValidChange(second, int(valid[second]))
	v, _ = p.PickVictim()
	if v != second {
		t.Fatalf("dirtier block not picked after re-bucket: got %d", v)
	}
}

// TestVictimIndexMatchesReference is the determinism property test: under
// randomized write/trim/GC sequences the indexed picker must agree with the
// retained reference linear scan on every single pick, for both policies —
// on a standalone pool over synthetic counts, and on a Base's pools over
// the device-wide flat arrays the mapper drives (runWiredVictimProperty).
func TestVictimIndexMatchesReference(t *testing.T) {
	for _, policy := range []GCPolicy{GCGreedy, GCCostBenefit} {
		policy := policy
		t.Run(policy.String(), func(t *testing.T) {
			for seed := uint64(1); seed <= 5; seed++ {
				runVictimProperty(t, policy, seed)
			}
			for seed := uint64(1); seed <= 3; seed++ {
				runWiredVictimProperty(t, policy, seed)
			}
		})
	}
}

// runWiredVictimProperty drives the victim index the way a kernel does: the
// pools of a Base (one flat array per index field, a window per chip) see
// valid counts only through Mapper updates, invalidations and remaps, and a
// SetMapper swap to a mapper rebuilt from the live mapping (the flash-scan
// rebuild path) rewires them mid-sequence. After every step each chip's
// indexed pick must equal the reference scan, and each block's flat full
// flag must equal its membership in its pool's FullBlocks.
func runWiredVictimProperty(t *testing.T, policy GCPolicy, seed uint64) {
	t.Helper()
	const steps = 4000
	dev, err := nand.NewDevice(nand.Config{Geometry: nand.TestGeometry(), Timing: nand.DefaultTiming(), Rules: core.RPS})
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.GC = policy
	b, err := NewBase(dev, cfg)
	if err != nil {
		t.Fatal(err)
	}
	g, lay := dev.Geometry(), dev.Layout()
	ppb := g.PagesPerBlock()
	// The sequence maps pages it never programs, so their LPNs live in a
	// fake spare area.
	b.SetMapper(NewMapper(*lay, b.LogicalPages(), fakeSpares{}))
	var freeLPNs []LPN
	for l := LPN(b.LogicalPages()) - 1; l >= 0; l-- {
		freeLPNs = append(freeLPNs, l)
	}
	takeLPN := func() LPN {
		l := freeLPNs[len(freeLPNs)-1]
		freeLPNs = freeLPNs[:len(freeLPNs)-1]
		return l
	}
	trim := func(ppn nand.PPN) {
		l, _ := b.Map.LPNAt(ppn)
		b.Map.Invalidate(l)
		freeLPNs = append(freeLPNs, l)
	}
	// fullPage returns a random page of a random full block of the chip
	// that is mapped (want true) or unmapped (want false), if one exists.
	fullPage := func(r *rng.Source, chip int, want bool) (nand.PPN, bool) {
		full := b.Pools[chip].FullBlocks()
		if len(full) == 0 {
			return 0, false
		}
		base := lay.PPN(chip, full[r.Intn(len(full))], 0)
		for i, start := 0, r.Intn(ppb); i < ppb; i++ {
			ppn := base + nand.PPN((start+i)%ppb)
			if _, mapped := b.Map.LPNAt(ppn); mapped == want {
				return ppn, true
			}
		}
		return 0, false
	}
	crossCheck := func(step int) {
		t.Helper()
		for chip, p := range b.Pools {
			got, gotOK := p.PickVictim()
			want, wantOK := p.PickVictimReference()
			if got != want || gotOK != wantOK {
				t.Fatalf("seed %d step %d (%v) chip %d: indexed = %d,%v reference = %d,%v",
					seed, step, policy, chip, got, gotOK, want, wantOK)
			}
			full := p.FullBlocks()
			for blk := 0; blk < g.BlocksPerChip; blk++ {
				flat := lay.FlatOf(nand.BlockAddr{Chip: chip, Block: blk})
				if b.full[flat] != slices.Contains(full, blk) || b.Map.full[flat] != b.full[flat] {
					t.Fatalf("seed %d step %d (%v): block %d of chip %d has full flag %v (mapper's %v), on the full list %v",
						seed, step, policy, blk, chip, b.full[flat], b.Map.full[flat], slices.Contains(full, blk))
				}
			}
		}
	}
	r := rng.New(seed)
	swaps := 0
	for step := 0; step < steps; step++ {
		chip := r.Intn(len(b.Pools))
		p := b.Pools[chip]
		switch op := r.Intn(100); {
		case op < 30: // fill a free block with some valid pages and push it full
			if blk, ok := p.PopFree(); ok {
				for i, n := 0, r.Intn(ppb+1); i < n && len(freeLPNs) > 0; i++ {
					mapTo(b.Map, takeLPN(), lay.PPN(chip, blk, i))
				}
				p.PushFull(blk)
			}
		case op < 60: // trim a valid page of a full block
			if ppn, ok := fullPage(r, chip, true); ok {
				trim(ppn)
			}
		case op < 70: // map a fresh LPN onto an unmapped page of a full block
			if ppn, ok := fullPage(r, chip, false); ok && len(freeLPNs) > 0 {
				mapTo(b.Map, takeLPN(), ppn)
			}
		case op < 80: // remap a live LPN between full blocks
			from, okFrom := fullPage(r, chip, true)
			to, okTo := fullPage(r, r.Intn(len(b.Pools)), false)
			if okFrom && okTo {
				l, _ := b.Map.LPNAt(from)
				mapTo(b.Map, l, to)
			}
		case op < 95: // GC: collect the chip's victim
			if v, ok := p.PickVictim(); ok {
				p.TakeFull(v)
				for _, ppn := range b.Map.ValidPages(nand.BlockAddr{Chip: chip, Block: v}) {
					trim(ppn)
				}
				p.PushFree(v)
			}
		default: // flash-scan rebuild: swap in a mapper rebuilt from the live mapping
			m := NewMapper(*lay, b.LogicalPages(), b.Map.spares)
			for l := LPN(0); l < LPN(b.LogicalPages()); l++ {
				if ppn, ok := b.Map.Lookup(l); ok {
					m.Update(l, ppn)
				}
			}
			b.SetMapper(m)
			swaps++
		}
		crossCheck(step)
	}
	if swaps == 0 {
		t.Fatalf("seed %d: no mapper swap in %d steps", seed, steps)
	}
}

func runVictimProperty(t *testing.T, policy GCPolicy, seed uint64) {
	t.Helper()
	const (
		blocks = 48
		ppb    = 16
		steps  = 4000
	)
	valid := make([]int32, blocks)
	p := NewFreePool(0, blocks)
	p.Policy = policy
	bindSynthetic(p, ppb, valid)
	r := rng.New(seed)

	var full []int
	removeFull := func(b int) {
		for i, x := range full {
			if x == b {
				full = append(full[:i], full[i+1:]...)
				return
			}
		}
		t.Fatalf("seed %d: block %d not tracked as full", seed, b)
	}
	crossCheck := func(step int) (int, bool) {
		t.Helper()
		got, gotOK := p.PickVictim()
		want, wantOK := p.PickVictimReference()
		if got != want || gotOK != wantOK {
			t.Fatalf("seed %d step %d (%v): indexed = %d,%v reference = %d,%v",
				seed, step, policy, got, gotOK, want, wantOK)
		}
		return got, gotOK
	}

	for step := 0; step < steps; step++ {
		switch op := r.Intn(100); {
		case op < 35: // fill a block and push it full ("write" burst)
			if b, ok := p.PopFree(); ok {
				valid[b] = int32(r.Intn(ppb + 1))
				p.PushFull(b)
				full = append(full, b)
			}
		case op < 75: // invalidate a page of a random full block ("trim"/update)
			if len(full) > 0 {
				b := full[r.Intn(len(full))]
				if valid[b] > 0 {
					valid[b]--
					p.NoteValidChange(b, int(valid[b]))
				}
			}
		case op < 85: // revalidation stresses upward re-bucketing too
			if len(full) > 0 {
				b := full[r.Intn(len(full))]
				if valid[b] < ppb {
					valid[b]++
					p.NoteValidChange(b, int(valid[b]))
				}
			}
		case op < 95: // GC: collect the agreed victim
			if v, ok := crossCheck(step); ok {
				p.TakeFull(v)
				removeFull(v)
				valid[v] = 0
				p.PushFree(v)
			}
		default: // mapper swap: rebuild the index from scratch
			p.Reindex()
		}
		crossCheck(step)
	}
}

// TestReindexAfterMapperSwap pins that Reindex rebuilds buckets from the
// current valid source — the SetMapper path — including stamp order within a
// bucket.
func TestReindexAfterMapperSwap(t *testing.T) {
	const ppb = 8
	valid := make([]int32, 4)
	p := NewFreePool(0, 4)
	bindSynthetic(p, ppb, valid)
	a, _ := p.PopFree()
	b, _ := p.PopFree()
	valid[a], valid[b] = 4, 2
	p.PushFull(a)
	p.PushFull(b)
	// Simulate a rebuilt mapper disagreeing with the old counts: mutate the
	// backing slice without notifications, then Reindex.
	valid[a], valid[b] = 1, 6
	p.Reindex()
	v, ok := p.PickVictim()
	if !ok || v != a {
		t.Fatalf("post-reindex pick = %d,%v, want %d", v, ok, a)
	}
	if rv, _ := p.PickVictimReference(); rv != v {
		t.Fatalf("reference disagrees after reindex: %d vs %d", rv, v)
	}
}

func TestPickVictimPanicsUnbound(t *testing.T) {
	p := NewFreePool(0, 2)
	defer func() {
		if recover() == nil {
			t.Error("PickVictim on unbound pool did not panic")
		}
	}()
	p.PickVictim()
}

func TestDuplicatePushFullPanics(t *testing.T) {
	p := NewFreePool(0, 2)
	b, _ := p.PopFree()
	p.PushFull(b)
	defer func() {
		if recover() == nil {
			t.Error("duplicate PushFull did not panic")
		}
	}()
	p.PushFull(b)
}
