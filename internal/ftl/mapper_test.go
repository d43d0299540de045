package ftl

import (
	"errors"
	"fmt"
	"slices"
	"strings"
	"testing"
	"testing/quick"

	"flexftl/internal/nand"
	"flexftl/internal/rng"
)

// fakeSpares stands in for a device's spare areas under a standalone
// mapper: mapTo records the LPN a test "programs" at a page, as the FTLs'
// data pages carry it, and PeekSpare hands it back.
type fakeSpares map[nand.PPN][SpareSize]byte

func (f fakeSpares) PeekSpare(ppn nand.PPN) ([SpareSize]byte, bool) {
	sp, ok := f[ppn]
	return sp, ok
}

// newFakeMapper builds a mapper over g whose spare areas are a fakeSpares.
func newFakeMapper(g nand.Geometry, logical int64) *Mapper {
	return NewMapper(nand.NewLayout(g), logical, fakeSpares{})
}

// mapTo programs lpn into the fake spare of ppn and maps it there, the
// two steps of an FTL write.
func mapTo(m *Mapper, lpn LPN, ppn nand.PPN) nand.PPN {
	m.spares.(fakeSpares)[ppn] = [SpareSize]byte(SpareForLPN(lpn))
	return m.Update(lpn, ppn)
}

func testMapper(t *testing.T) (*Mapper, nand.Geometry) {
	t.Helper()
	g := nand.TestGeometry()
	return newFakeMapper(g, int64(g.TotalPages()/2)), g
}

func TestNewMapperPanicsOnBadSize(t *testing.T) {
	g := nand.TestGeometry()
	for _, n := range []int64{0, -1, int64(g.TotalPages()) + 1} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("logicalPages=%d accepted", n)
				}
			}()
			newFakeMapper(g, n)
		}()
	}
}

func TestMapperUpdateLookup(t *testing.T) {
	m, _ := testMapper(t)
	if _, ok := m.Lookup(5); ok {
		t.Error("unmapped LPN resolves")
	}
	old := mapTo(m, 5, 100)
	if old != nand.InvalidPPN {
		t.Errorf("first update superseded %v", old)
	}
	ppn, ok := m.Lookup(5)
	if !ok || ppn != 100 {
		t.Errorf("Lookup = %v,%v", ppn, ok)
	}
	if lpn, ok := m.LPNAt(100); !ok || lpn != 5 {
		t.Errorf("LPNAt = %v,%v", lpn, ok)
	}
	if m.Mapped() != 1 {
		t.Errorf("Mapped = %d", m.Mapped())
	}
	// Overwrite invalidates the old PPN.
	old = mapTo(m, 5, 200)
	if old != 100 {
		t.Errorf("superseded = %v, want 100", old)
	}
	if _, ok := m.LPNAt(100); ok {
		t.Error("stale PPN still valid")
	}
	if m.Mapped() != 1 {
		t.Errorf("Mapped after overwrite = %d", m.Mapped())
	}
}

func TestMapperValidCounts(t *testing.T) {
	m, g := testMapper(t)
	perBlock := g.PagesPerBlock()
	blk0 := nand.BlockAddr{Chip: 0, Block: 0}
	// Fill block 0 with LPNs 0..perBlock-1.
	for i := 0; i < perBlock; i++ {
		mapTo(m, LPN(i), nand.PPN(i))
	}
	if m.ValidCount(blk0) != perBlock {
		t.Errorf("valid = %d, want %d", m.ValidCount(blk0), perBlock)
	}
	// Rewriting half of them elsewhere drops the count.
	base := nand.PPN(int64(perBlock))
	for i := 0; i < perBlock/2; i++ {
		mapTo(m, LPN(i), base+nand.PPN(i))
	}
	if m.ValidCount(blk0) != perBlock/2 {
		t.Errorf("valid after overwrite = %d, want %d", m.ValidCount(blk0), perBlock/2)
	}
	pages := m.ValidPages(blk0)
	if len(pages) != perBlock/2 {
		t.Errorf("ValidPages = %d entries", len(pages))
	}
}

func TestMapperInvalidate(t *testing.T) {
	m, _ := testMapper(t)
	mapTo(m, 7, 42)
	if !m.Invalidate(7) {
		t.Error("Invalidate of mapped LPN returned false")
	}
	if m.Invalidate(7) {
		t.Error("double Invalidate returned true")
	}
	if m.Invalidate(-1) || m.Invalidate(1<<40) {
		t.Error("out-of-range Invalidate returned true")
	}
	if _, ok := m.Lookup(7); ok {
		t.Error("invalidated LPN still resolves")
	}
	if m.Mapped() != 0 {
		t.Errorf("Mapped = %d", m.Mapped())
	}
}

// TestMapperDoubleMapPPNPanics: mapping a second LPN onto a valid page is a
// bug the bitmap catches, and the panic names the LPN the page's spare holds.
func TestMapperDoubleMapPPNPanics(t *testing.T) {
	m, _ := testMapper(t)
	mapTo(m, 1, 10)
	defer func() {
		if r := recover(); r == nil {
			t.Error("mapping two LPNs to one PPN did not panic")
		} else if msg := fmt.Sprint(r); !strings.Contains(msg, "holds LPN 1") {
			t.Errorf("double-map panic %q does not name LPN 1", msg)
		}
	}()
	m.Update(2, 10)
}

func TestMapperClearBlockPanicsOnValidPages(t *testing.T) {
	m, _ := testMapper(t)
	mapTo(m, 1, 0)
	defer func() {
		if recover() == nil {
			t.Error("ClearBlock with valid pages did not panic")
		}
	}()
	m.ClearBlock(nand.BlockAddr{Chip: 0, Block: 0})
}

func TestFlatBlockRoundTrip(t *testing.T) {
	m, g := testMapper(t)
	for chip := 0; chip < g.Chips(); chip++ {
		for blk := 0; blk < g.BlocksPerChip; blk++ {
			a := nand.BlockAddr{Chip: chip, Block: blk}
			if m.BlockOfFlat(m.FlatBlock(a)) != a {
				t.Fatalf("flat round trip failed for %v", a)
			}
		}
	}
}

// Property: after any sequence of updates/invalidates, the sum of per-block
// valid counts equals Mapped(), and every l2p entry round-trips through the
// LPN in its page's spare.
func TestMapperConsistencyProperty(t *testing.T) {
	g := nand.TestGeometry()
	f := func(seed uint64) bool {
		src := rng.New(seed)
		logical := int64(g.TotalPages() / 2)
		m := newFakeMapper(g, logical)
		nextPPN := 0
		for op := 0; op < 500 && nextPPN < g.TotalPages(); op++ {
			lpn := LPN(src.Int63n(logical))
			if src.Bool(0.85) {
				mapTo(m, lpn, nand.PPN(nextPPN))
				nextPPN++
			} else {
				m.Invalidate(lpn)
			}
		}
		var total int64
		for flat := 0; flat < g.TotalBlocks(); flat++ {
			total += int64(m.ValidCount(m.BlockOfFlat(flat)))
		}
		if total != m.Mapped() {
			return false
		}
		for lpn := LPN(0); lpn < LPN(logical); lpn++ {
			if ppn, ok := m.Lookup(lpn); ok {
				back, ok2 := m.LPNAt(ppn)
				if !ok2 || back != lpn {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestFreePool(t *testing.T) {
	p := NewFreePool(0, 4)
	if p.FreeCount() != 4 || p.FullCount() != 0 {
		t.Fatal("fresh pool wrong")
	}
	b, ok := p.PopFree()
	if !ok || b != 0 {
		t.Fatalf("PopFree = %d,%v", b, ok)
	}
	p.PushFull(b)
	if p.FullCount() != 1 {
		t.Error("full count wrong")
	}
	p.TakeFull(b)
	p.PushFree(b)
	if p.FreeCount() != 4 {
		t.Error("free count wrong after recycle")
	}
	for i := 0; i < 4; i++ {
		if _, ok := p.PopFree(); !ok {
			t.Fatal("pool exhausted early")
		}
	}
	if _, ok := p.PopFree(); ok {
		t.Error("empty pool popped")
	}
}

func TestTakeFullPanicsOnMissing(t *testing.T) {
	p := NewFreePool(0, 2)
	defer func() {
		if recover() == nil {
			t.Error("TakeFull of absent block did not panic")
		}
	}()
	p.TakeFull(99)
}

func TestPickVictimGreedy(t *testing.T) {
	g := nand.TestGeometry()
	m := newFakeMapper(g, int64(g.TotalPages()/2))
	p := NewFreePool(0, g.BlocksPerChip)
	// Block 0: all valid. Block 1: half valid. Block 2: empty (all invalid).
	perBlock := g.PagesPerBlock()
	b0, _ := p.PopFree()
	b1, _ := p.PopFree()
	b2, _ := p.PopFree()
	lpn := LPN(0)
	fill := func(blk, valid int) {
		base := nand.PPN(int64(blk) * int64(perBlock))
		for i := 0; i < valid; i++ {
			mapTo(m, lpn, base+nand.PPN(i))
			lpn++
		}
	}
	fill(b0, perBlock)
	fill(b1, perBlock/2)
	fill(b2, 0)
	p.Bind(perBlock, m.validCount[:g.BlocksPerChip])
	m.SetVictimIndex([]*FreePool{p}, p.inFull)
	p.PushFull(b0)
	p.PushFull(b1)
	p.PushFull(b2)
	v, ok := p.PickVictim()
	if !ok || v != b2 {
		t.Errorf("victim = %d,%v, want block %d (all invalid)", v, ok, b2)
	}
	// After taking b2, the half-valid block is next.
	p.TakeFull(b2)
	v, ok = p.PickVictim()
	if !ok || v != b1 {
		t.Errorf("victim = %d,%v, want block %d", v, ok, b1)
	}
	// A pool with only fully-valid blocks yields no victim.
	p.TakeFull(b1)
	if v, ok := p.PickVictim(); ok {
		t.Errorf("fully-valid block chosen as victim: %d", v)
	}
}

func TestPickVictimCostBenefit(t *testing.T) {
	g := nand.TestGeometry()
	m := newFakeMapper(g, int64(g.TotalPages()/2))
	p := NewFreePool(0, g.BlocksPerChip)
	p.Policy = GCCostBenefit
	perBlock := g.PagesPerBlock()
	b0, _ := p.PopFree() // old block, moderately dirty
	b1, _ := p.PopFree() // young block, slightly dirtier
	lpn := LPN(0)
	fill := func(blk, valid int) {
		base := nand.PPN(int64(blk) * int64(perBlock))
		for i := 0; i < valid; i++ {
			mapTo(m, lpn, base+nand.PPN(i))
			lpn++
		}
	}
	fill(b0, perBlock/2)   // 50% invalid
	fill(b1, perBlock/2-1) // slightly more invalid
	p.Bind(perBlock, m.validCount[:g.BlocksPerChip])
	m.SetVictimIndex([]*FreePool{p}, p.inFull)
	p.PushFull(b0)
	// Age b0 by pushing/taking unrelated blocks to advance the clock.
	for i := 0; i < 50; i++ {
		bx, _ := p.PopFree()
		p.PushFull(bx)
		p.TakeFull(bx)
		p.PushFree(bx)
	}
	p.PushFull(b1)
	v, ok := p.PickVictim()
	if !ok || v != b0 {
		t.Errorf("cost-benefit picked %d, want the aged block %d", v, b0)
	}
	// Greedy would pick the dirtier young block.
	p.Policy = GCGreedy
	v, ok = p.PickVictim()
	if !ok || v != b1 {
		t.Errorf("greedy picked %d, want the dirtiest block %d", v, b1)
	}
}

func TestGCPolicyString(t *testing.T) {
	if GCGreedy.String() != "greedy" || GCCostBenefit.String() != "cost-benefit" {
		t.Error("policy names wrong")
	}
}

func TestStatsHelpers(t *testing.T) {
	s := Stats{HostWrites: 10, GCCopies: 5, BackupWrites: 5}
	if s.TotalPrograms() != 20 {
		t.Errorf("TotalPrograms = %d", s.TotalPrograms())
	}
	if s.WriteAmplification() != 2.0 {
		t.Errorf("WA = %v", s.WriteAmplification())
	}
	if (Stats{}).WriteAmplification() != 0 {
		t.Error("WA of zero stats != 0")
	}
}

func TestConfigValidate(t *testing.T) {
	if err := DefaultConfig().Validate(); err != nil {
		t.Fatal(err)
	}
	bad := []Config{
		{OPFraction: 0, GCFreeFraction: 0.1, MinFreeBlocksPerChip: 1},
		{OPFraction: 0.95, GCFreeFraction: 0.1, MinFreeBlocksPerChip: 1},
		{OPFraction: 0.1, GCFreeFraction: 0, MinFreeBlocksPerChip: 1},
		{OPFraction: 0.1, GCFreeFraction: 1.5, MinFreeBlocksPerChip: 1},
		{OPFraction: 0.1, GCFreeFraction: 0.1, MinFreeBlocksPerChip: 0},
	}
	for i, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("case %d accepted: %+v", i, c)
		}
	}
}

func TestTokenHelpers(t *testing.T) {
	g := nand.TestGeometry()
	dev, err := nand.NewDevice(nand.Config{Geometry: g, Timing: nand.DefaultTiming()})
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewBase(dev, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	// Token returns a reusable scratch buffer, so capture each value as a
	// string before generating the next token.
	tok1 := string(b.Token(42))
	tok2 := string(b.Token(42))
	if tok1 == tok2 {
		t.Error("tokens for successive writes identical (sequence not advancing)")
	}
	if lpn, ok := TokenLPN([]byte(tok1)); !ok || lpn != 42 {
		t.Errorf("TokenLPN = %v,%v", lpn, ok)
	}
	if _, ok := TokenLPN([]byte{1}); ok {
		t.Error("short token decoded")
	}
	sp := SpareForLPN(123)
	if lpn, ok := LPNFromSpare(sp); !ok || lpn != 123 {
		t.Errorf("LPNFromSpare = %v,%v", lpn, ok)
	}
	if _, ok := LPNFromSpare(nil); ok {
		t.Error("nil spare decoded")
	}
}

// TestCheckCapacity: a geometry past the int32 page numbers of the mapping
// table is a typed error, decided from the geometry alone — these devices
// are never built. The page count is not wrapped when it overflows an int.
// The bound is the device's: CheckCapacity is nand.CheckCapacity.
func TestCheckCapacity(t *testing.T) {
	at := nand.Geometry{Channels: 1, ChipsPerChannel: 1, BlocksPerChip: 1, WordLinesPerBlock: (1 << 30) - 1}
	if err := CheckCapacity(at); err != nil {
		t.Errorf("%d pages refused: %v", nand.MaxPages, err)
	}
	for _, g := range []nand.Geometry{
		{Channels: 1, ChipsPerChannel: 1, BlocksPerChip: 1, WordLinesPerBlock: 1 << 30},
		{Channels: 8, ChipsPerChannel: 16, BlocksPerChip: 4096, WordLinesPerBlock: 1024, Levels: 4},
		{Channels: 1 << 16, ChipsPerChannel: 1 << 16, BlocksPerChip: 1 << 16, WordLinesPerBlock: 1 << 16},
	} {
		var ce *nand.CapacityError
		if err := CheckCapacity(g); !errors.As(err, &ce) || ce.Pages <= nand.MaxPages {
			t.Errorf("%+v: CheckCapacity = %v, want a *nand.CapacityError above %d pages", g, err, nand.MaxPages)
		}
	}
	if err := CheckCapacity(nand.DefaultGeometry()); err != nil {
		t.Errorf("the paper's device refused: %v", err)
	}
}

// TestDividerExact: the multiply-and-shift division the mapper's page
// numbering uses (nand.Divider) equals integer division for every divisor
// and dividend the mapper can see, including the largest.
func TestDividerExact(t *testing.T) {
	check := func(d, n int) bool {
		if got := nand.NewDivider(d).Div(n); got != n/d {
			t.Errorf("%d / %d = %d, want %d", n, d, got, n/d)
			return false
		}
		return true
	}
	for d := 1; d <= 1100; d++ {
		for _, n := range []int{0, 1, d - 1, d, d + 1, 7*d - 1, 7 * d, nand.MaxPages, nand.MaxPages + 1} {
			check(d, n)
		}
	}
	for _, d := range []int{1 << 20, 1<<20 + 1, 1 << 30, 1<<30 + 1, nand.MaxPages, nand.MaxPages + 1} {
		for _, n := range []int{0, d - 1, d, nand.MaxPages, nand.MaxPages + 1} {
			check(d, n)
		}
	}
	f := func(d, n uint32) bool { return check(int(d>>1)+1, int(n>>1)) }
	if err := quick.Check(f, &quick.Config{MaxCount: 100000}); err != nil {
		t.Error(err)
	}
}

// refStateHash is Mapper.StateHash recomputed from a reference map: FNV-1a
// over every LPN's page number as an int64 (-1 when unmapped), then every
// block's valid count.
func refStateHash(ref map[LPN]nand.PPN, logical int64, valid []int) uint64 {
	h := uint64(14695981039346656037)
	mix := func(v uint64) {
		for i := 0; i < 8; i++ {
			h ^= uint64(byte(v >> (8 * i)))
			h *= 1099511628211
		}
	}
	for lpn := LPN(0); lpn < LPN(logical); lpn++ {
		ppn, ok := ref[lpn]
		if !ok {
			ppn = nand.InvalidPPN
		}
		mix(uint64(int64(ppn)))
	}
	for _, v := range valid {
		mix(uint64(uint32(v)))
	}
	return h
}

// TestMapperDifferential drives seeded random Update/Invalidate sequences
// through a Mapper with a victim index attached and through a plain
// map[LPN]PPN, and compares every read the mapper offers after each step —
// LPN 0, PPN 0 and the last PPN included, the edges of the tables' +1 bias
// — plus the valid count each pool was handed.
func TestMapperDifferential(t *testing.T) {
	tlc := nand.TestGeometry()
	tlc.Levels = 3
	for _, g := range []nand.Geometry{nand.TestGeometry(), tlc} {
		for seed := uint64(1); seed <= 4; seed++ {
			mapperDifferential(t, g, seed)
		}
	}
}

func mapperDifferential(t *testing.T, g nand.Geometry, seed uint64) {
	t.Helper()
	total := g.TotalPages()
	logical := int64(total / 2)
	m := newFakeMapper(g, logical)
	pools, full := newPools(g.Chips(), g.BlocksPerChip, g.PagesPerBlock())
	for c, p := range pools {
		lo, hi := c*g.BlocksPerChip, (c+1)*g.BlocksPerChip
		p.Bind(g.PagesPerBlock(), m.validCount[lo:hi:hi])
		for blk := 0; blk < g.BlocksPerChip; blk++ {
			p.PushFull(blk)
		}
	}
	m.SetVictimIndex(pools, full)

	ref := map[LPN]nand.PPN{}
	held := map[nand.PPN]LPN{}
	src := rng.New(seed)
	pick := func(n int64) int64 {
		switch src.Intn(8) {
		case 0:
			return 0
		case 1:
			return n - 1
		}
		return src.Int63n(n)
	}
	for step := 0; step < 600; step++ {
		lpn := LPN(pick(logical))
		if src.Bool(0.2) {
			old, had := ref[lpn]
			if m.Invalidate(lpn) != had {
				t.Fatalf("%v seed %d step %d: Invalidate(%d) = %v, want %v", g, seed, step, lpn, !had, had)
			}
			if had {
				delete(held, old)
				delete(ref, lpn)
			}
		} else {
			ppn := nand.PPN(pick(int64(total)))
			if _, busy := held[ppn]; busy {
				continue // programming a held page is the panic TestMapperDoubleMapPPNPanics covers
			}
			want, had := ref[lpn]
			if !had {
				want = nand.InvalidPPN
			}
			if old := mapTo(m, lpn, ppn); old != want {
				t.Fatalf("%v seed %d step %d: Update(%d, %d) superseded %d, want %d", g, seed, step, lpn, ppn, old, want)
			}
			delete(held, want)
			ref[lpn], held[ppn] = ppn, lpn
		}
		if step%50 == 0 || step == 599 {
			compareMapper(t, m, pools, g, ref, held, logical)
		}
	}
}

func compareMapper(t *testing.T, m *Mapper, pools []*FreePool, g nand.Geometry, ref map[LPN]nand.PPN, held map[nand.PPN]LPN, logical int64) {
	t.Helper()
	if m.Mapped() != int64(len(ref)) {
		t.Fatalf("%v: Mapped = %d, want %d", g, m.Mapped(), len(ref))
	}
	for lpn := LPN(0); lpn < LPN(logical); lpn++ {
		want, ok := ref[lpn]
		if !ok {
			want = nand.InvalidPPN
		}
		if got, gotOK := m.Lookup(lpn); got != want || gotOK != ok {
			t.Fatalf("%v: Lookup(%d) = %d,%v, want %d,%v", g, lpn, got, gotOK, want, ok)
		}
	}
	ppb := g.PagesPerBlock()
	valid := make([]int, g.TotalBlocks())
	for flat := range valid {
		a := m.BlockOfFlat(flat)
		var pages []nand.PPN
		for i := 0; i < ppb; i++ {
			ppn := nand.PPN(flat*ppb + i)
			want, ok := held[ppn]
			if !ok {
				want = -1
			}
			if got, gotOK := m.LPNAt(ppn); got != want || gotOK != ok {
				t.Fatalf("%v: LPNAt(%d) = %d,%v, want %d,%v", g, ppn, got, gotOK, want, ok)
			}
			if ok {
				pages = append(pages, ppn)
			}
		}
		valid[flat] = len(pages)
		if got := m.ValidCount(a); got != len(pages) {
			t.Fatalf("%v: ValidCount(%v) = %d, want %d", g, a, got, len(pages))
		}
		if got := int(pools[a.Chip].bucketOf[a.Block]); got != len(pages) {
			t.Fatalf("%v: pool %d holds block %d in bucket %d, want %d", g, a.Chip, a.Block, got, len(pages))
		}
		if got := m.AppendValidPages(a, nil); !slices.Equal(got, pages) {
			t.Fatalf("%v: AppendValidPages(%v) = %v, want %v", g, a, got, pages)
		}
		first, ok := m.FirstValidPage(a)
		if want := len(pages) > 0; ok != want || (ok && first != pages[0]) {
			t.Fatalf("%v: FirstValidPage(%v) = %d,%v, want %v", g, a, first, ok, pages)
		}
	}
	if got, want := m.StateHash(), refStateHash(ref, logical, valid); got != want {
		t.Fatalf("%v: StateHash = %x, want %x", g, got, want)
	}
}
