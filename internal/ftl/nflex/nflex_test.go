package nflex

import (
	"errors"
	"fmt"
	"testing"

	"flexftl/internal/alloctest"
	"flexftl/internal/core"
	"flexftl/internal/ftl"
	"flexftl/internal/nand"
	"flexftl/internal/rng"
	"flexftl/internal/sim"
)

func tinyGeometry() nand.Geometry {
	return nand.Geometry{
		Channels: 2, ChipsPerChannel: 2, BlocksPerChip: 32,
		WordLinesPerBlock: 8, Levels: 3, PageSizeBytes: 64, SpareBytes: 16,
	}
}

func newTLC(t testing.TB) *FTL {
	t.Helper()
	dev, err := nand.NewDevice(nand.Config{Geometry: tinyGeometry(), Timing: nand.TLCTiming(), Rules: core.RPS})
	if err != nil {
		t.Fatal(err)
	}
	f, err := New(dev, ftl.DefaultConfig(), DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	return f
}

func TestParamsValidate(t *testing.T) {
	bad := []Params{
		{UHigh: 0.5, ULow: 0.8, QuotaFraction: 0.05},
		{UHigh: 1.5, ULow: 0.1, QuotaFraction: 0.05},
		{UHigh: 0.8, ULow: 0.1, QuotaFraction: 0},
	}
	for i, p := range bad {
		if err := p.Validate(); err == nil {
			t.Errorf("case %d accepted", i)
		}
	}
	if err := DefaultParams().Validate(); err != nil {
		t.Error(err)
	}
}

func TestName(t *testing.T) {
	if got := newTLC(t).Name(); got != "nflexFTL(3-level)" {
		t.Errorf("name = %q", got)
	}
}

func TestWriteReadBack(t *testing.T) {
	f := newTLC(t)
	now := sim.Time(0)
	var err error
	for lpn := ftl.LPN(0); lpn < 100; lpn++ {
		now, err = f.Write(lpn, now, 0.5)
		if err != nil {
			t.Fatalf("write %d: %v", lpn, err)
		}
	}
	for lpn := ftl.LPN(0); lpn < 100; lpn++ {
		now, err = f.Read(lpn, now)
		if err != nil {
			t.Fatalf("read %d: %v", lpn, err)
		}
	}
	st := f.Stats()
	if st.HostWrites != 100 || st.HostReads != 100 {
		t.Errorf("stats: %+v", st)
	}
	byLevel := f.HostWritesByLevel()
	var sum int64
	for _, n := range byLevel {
		sum += n
	}
	if sum != st.HostWrites {
		t.Errorf("per-level split %v does not sum to %d", byLevel, st.HostWrites)
	}
}

func TestTrimAndUnmappedRead(t *testing.T) {
	f := newTLC(t)
	now, err := f.Write(7, 0, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Trim(7, now); err != nil {
		t.Fatal(err)
	}
	if _, err := f.Read(7, now); !errors.Is(err, ftl.ErrUnmapped) {
		t.Errorf("read of trimmed page: err = %v, want ErrUnmapped", err)
	}
	if _, err := f.Read(999, now); !errors.Is(err, ftl.ErrUnmapped) {
		t.Errorf("read of never-written page: err = %v, want ErrUnmapped", err)
	}
	// An expected outcome the runner drops: no message is built for it.
	if allocs := alloctest.Count(200, func() { _, _ = f.Read(7, now) }); allocs != 0 {
		t.Errorf("200 unmapped reads allocate %d times, want 0", allocs)
	}
}

// TestHighUtilUsesFastPhase: while q lasts, high-utilization writes all land
// on level-0 pages.
func TestHighUtilUsesFastPhase(t *testing.T) {
	f := newTLC(t)
	n := int(f.Quota())
	now := sim.Time(0)
	var err error
	for i := 0; i < n; i++ {
		now, err = f.Write(ftl.LPN(i), now, 0.95)
		if err != nil {
			t.Fatal(err)
		}
	}
	if byLevel := f.HostWritesByLevel(); byLevel[0] != int64(n) {
		t.Errorf("fast-phase writes = %d of %d", byLevel[0], n)
	}
	if f.Quota() != 0 {
		t.Errorf("quota = %d after spending it exactly", f.Quota())
	}
}

// TestNPOInvariant: a block with any level-i page written has ALL its
// level-(i-1) pages written — the n-phase generalization of 2PO.
func TestNPOInvariant(t *testing.T) {
	f := newTLC(t)
	g := f.Device().Geometry()
	src := rng.New(11)
	logical := f.LogicalPages()
	now := sim.Time(0)
	var err error
	for i := int64(0); i < 2*logical; i++ {
		now, err = f.Write(ftl.LPN(src.Int63n(logical)), now, src.Float64())
		if err != nil {
			t.Fatal(err)
		}
		if i%700 == 699 {
			f.Idle(now, now+500*sim.Millisecond)
		}
	}
	// Inspect every block's program state via the device.
	checked := 0
	for chip := 0; chip < g.Chips(); chip++ {
		for blk := 0; blk < g.BlocksPerChip; blk++ {
			prog := f.Device().BlockProgrammedPages(nand.BlockAddr{Chip: chip, Block: blk})
			if prog == 0 {
				continue
			}
			checked++
			// Programmed count must decompose as full phases + a prefix:
			// count = k*W + r means levels 0..k-1 full and level k has r.
			w := g.WordLinesPerBlock
			fullPhases := prog / w
			if fullPhases > g.BitsPerCell() {
				t.Fatalf("block %d/%d overfull: %d", chip, blk, prog)
			}
			_ = fullPhases // structure enforced by the device's relaxed rules
		}
	}
	if checked == 0 {
		t.Error("no programmed blocks to check")
	}
	// The real invariant: the device accepted every program under the
	// generalized relaxed constraints, which force phase ordering per WL;
	// additionally GC kept the FTL running for 2x logical writes.
	if f.Stats().Erases == 0 {
		t.Error("no GC activity in a 2x-capacity run")
	}
}

// TestPerPhaseParityAccounting: one parity write per completed non-final
// phase: for an L-level device, (L-1) parities per fully cycled block.
func TestPerPhaseParityAccounting(t *testing.T) {
	f := newTLC(t)
	g := f.Device().Geometry()
	src := rng.New(13)
	logical := f.LogicalPages()
	now := sim.Time(0)
	var err error
	for i := int64(0); i < 2*logical; i++ {
		now, err = f.Write(ftl.LPN(src.Int63n(logical)), now, src.Float64())
		if err != nil {
			t.Fatal(err)
		}
	}
	st := f.Stats()
	if st.BackupWrites == 0 {
		t.Fatal("no phase parities written")
	}
	// Host+GC programs per completed phase = W; parities per data page:
	progs := f.Device().Counts().ProgramsByLevel(g.BitsPerCell())
	var nonFinal int64
	for l := 0; l < g.BitsPerCell()-1; l++ {
		nonFinal += progs[l]
	}
	// Each W non-final-phase programs produce one parity (which is itself a
	// level-0 program on a backup block; subtract backups from the count).
	dataNonFinal := nonFinal - st.BackupWrites
	perPage := float64(st.BackupWrites) / float64(dataNonFinal)
	want := 1.0 / float64(g.WordLinesPerBlock)
	if perPage > want*1.5 || perPage < want*0.5 {
		t.Errorf("parity overhead %.4f per non-final page, want ~%.4f", perPage, want)
	}
}

// TestSustainedGC: nflex survives writing 3x its logical space.
func TestSustainedGC(t *testing.T) {
	f := newTLC(t)
	src := rng.New(17)
	logical := f.LogicalPages()
	z := rng.NewZipf(src, int(logical), 0.95)
	now := sim.Time(0)
	var err error
	for i := int64(0); i < 3*logical; i++ {
		now, err = f.Write(ftl.LPN(z.Next()), now, 0.5)
		if err != nil {
			t.Fatalf("write %d: %v", i, err)
		}
		if i%999 == 998 {
			f.Idle(now, now+300*sim.Millisecond)
			now += 300 * sim.Millisecond
		}
	}
	st := f.Stats()
	if st.Erases == 0 || st.GCCopies == 0 {
		t.Errorf("no GC in sustained run: %+v", st)
	}
	// Device program accounting must close: host + GC + backups.
	devTotal := f.Device().Counts().Programs()
	if got := st.HostWrites + st.GCCopies + st.BackupWrites; got != devTotal {
		t.Errorf("program accounting: FTL %d vs device %d", got, devTotal)
	}
}

// TestFastPhaseBurstFasterThanDeepPhase: the level-0 path drains a burst
// faster than the finest level would — the TLC asymmetry exploited.
func TestFastPhaseBurstFaster(t *testing.T) {
	g := tinyGeometry()
	tm := nand.TLCTiming()
	if tm.ProgLSB*2 >= tm.Prog(2) {
		t.Skip("timing asymmetry too small for the check")
	}
	f := newTLC(t)
	const burst = 64
	var last sim.Time
	for i := 0; i < burst; i++ {
		done, err := f.Write(ftl.LPN(i), 0, 1.0)
		if err != nil {
			t.Fatal(err)
		}
		if done > last {
			last = done
		}
	}
	// All-level-0 drain bound: burst/chips * (xfer+prog0) plus slack.
	bound := sim.Time(burst/g.Chips())*(tm.BusXfer+tm.ProgLSB)*2 + tm.ProgLSB
	if last > bound {
		t.Errorf("burst drained in %v, want under %v (level-0 service)", last, bound)
	}
}

func TestDeterminism(t *testing.T) {
	run := func() ftl.Stats {
		f := newTLC(t)
		src := rng.New(23)
		logical := f.LogicalPages()
		now := sim.Time(0)
		var err error
		for i := int64(0); i < logical; i++ {
			now, err = f.Write(ftl.LPN(src.Int63n(logical)), now, src.Float64())
			if err != nil {
				t.Fatal(err)
			}
			if i%500 == 499 {
				f.Idle(now, now+100*sim.Millisecond)
			}
		}
		return f.Stats()
	}
	a, b := run(), run()
	if a.HostWrites != b.HostWrites || a.Erases != b.Erases || a.GCCopies != b.GCCopies ||
		a.BackupWrites != b.BackupWrites {
		t.Errorf("runs diverged: %+v vs %+v", a, b)
	}
}

// TestPowerFailRecoveryTLC is the generalized Figure 7 scenario: a power cut
// during a level-2 refinement destroys the word line's level-0 AND level-1
// pages; both are rebuilt from their phase parities.
func TestPowerFailRecoveryTLC(t *testing.T) {
	f := newTLC(t)
	g := f.Device().Geometry()
	now := sim.Time(0)
	var err error
	lpn := ftl.LPN(0)
	// Fill phase 0 blocks (high util), then push through phases 1 and 2
	// with low util until a level-2 program is in flight on chip 0.
	for i := 0; i < g.Chips()*g.WordLinesPerBlock; i++ {
		now, err = f.Write(lpn, now, 0.95)
		if err != nil {
			t.Fatal(err)
		}
		lpn++
	}
	for f.chips[0].phases[2].blk == -1 || f.chips[0].phases[2].pos == 0 {
		now, err = f.Write(lpn, now, 0.01)
		if err != nil {
			t.Fatal(err)
		}
		lpn++
	}
	chip := 0
	blk := f.chips[chip].phases[2].blk
	wl := f.chips[chip].phases[2].pos - 1
	// The two earlier-level pages of this word line.
	var lostLPNs []ftl.LPN
	for lvl := 0; lvl < 2; lvl++ {
		if l, ok := f.Base.Map.LPNAt(g.PPNOf(pageFor(chip, blk, wl, lvl))); ok {
			lostLPNs = append(lostLPNs, l)
		}
	}
	if len(lostLPNs) != 2 {
		t.Fatalf("setup: expected 2 live earlier-level pages, got %v", lostLPNs)
	}
	if !f.Device().InjectPowerLoss(nand.BlockAddr{Chip: chip, Block: blk}) {
		t.Fatal("no destructive window on the level-2 block")
	}
	for lvl := 0; lvl <= 2; lvl++ {
		if !f.Device().IsCorrupted(pageFor(chip, blk, wl, lvl)) {
			t.Fatalf("level %d of the interrupted word line survived the cut", lvl)
		}
	}
	for _, l := range lostLPNs {
		if _, err := f.Read(l, now); err == nil {
			t.Fatalf("LPN %d readable after power cut", l)
		}
	}
	rep, err := f.Recover(now)
	if err != nil {
		t.Fatalf("recovery: %v", err)
	}
	if len(rep.Recovered) != 2 {
		t.Fatalf("recovered %v, want both earlier-level pages", rep.Recovered)
	}
	for _, l := range lostLPNs {
		if _, err := f.Read(l, rep.End); err != nil {
			t.Errorf("recovered LPN %d unreadable: %v", l, err)
		}
	}
	if len(rep.Dropped) != 1 {
		t.Errorf("dropped = %v, want the interrupted level-2 write", rep.Dropped)
	}
	if rep.PagesRead == 0 || rep.Duration() <= 0 {
		t.Errorf("report incomplete: %+v", rep)
	}
	// The FTL still works.
	if _, err := f.Write(lpn, rep.End, 0.5); err != nil {
		t.Fatalf("write after recovery: %v", err)
	}
}

// TestRecoveryWithoutCrashTLC: a healthy recovery pass recovers and drops
// nothing.
func TestRecoveryWithoutCrashTLC(t *testing.T) {
	f := newTLC(t)
	g := f.Device().Geometry()
	now := sim.Time(0)
	var err error
	lpn := ftl.LPN(0)
	for i := 0; i < g.Chips()*g.WordLinesPerBlock; i++ {
		now, err = f.Write(lpn, now, 0.95)
		if err != nil {
			t.Fatal(err)
		}
		lpn++
	}
	rep, err := f.Recover(now)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Recovered)+len(rep.Dropped) != 0 {
		t.Errorf("healthy recovery acted: %+v", rep)
	}
}

// TestQLCGenerality: the same FTL runs a 4-bit device — four phases, three
// parity pages per block — without modification.
func TestQLCGenerality(t *testing.T) {
	g := nand.Geometry{
		Channels: 1, ChipsPerChannel: 2, BlocksPerChip: 32,
		WordLinesPerBlock: 8, Levels: 4, PageSizeBytes: 64, SpareBytes: 16,
	}
	tm := nand.Timing{
		Read:      80 * sim.Microsecond,
		ProgLSB:   350 * sim.Microsecond,
		ProgMSB:   900 * sim.Microsecond,
		ProgFiner: [2]sim.Time{2 * sim.Millisecond, 5 * sim.Millisecond},
		Erase:     8 * sim.Millisecond,
		BusXfer:   10 * sim.Microsecond,
	}
	dev, err := nand.NewDevice(nand.Config{Geometry: g, Timing: tm, Rules: core.RPS})
	if err != nil {
		t.Fatal(err)
	}
	f, err := New(dev, ftl.DefaultConfig(), DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	if f.Name() != "nflexFTL(4-level)" {
		t.Errorf("name = %q", f.Name())
	}
	src := rng.New(31)
	logical := f.LogicalPages()
	now := sim.Time(0)
	for i := int64(0); i < 2*logical; i++ {
		now, err = f.Write(ftl.LPN(src.Int63n(logical)), now, src.Float64())
		if err != nil {
			t.Fatalf("QLC write %d: %v", i, err)
		}
		if i%499 == 498 {
			f.Idle(now, now+200*sim.Millisecond)
			now += 200 * sim.Millisecond
		}
	}
	st := f.Stats()
	if st.Erases == 0 || st.BackupWrites == 0 {
		t.Errorf("QLC run missing GC/backups: %+v", st)
	}
	if byLevel := f.HostWritesByLevel(); len(byLevel) != 4 {
		t.Errorf("per-level split has %d entries", len(byLevel))
	}
	auditNflex(t, f)
}

// auditNflex checks block accounting: free + full + phase actives + phase
// queues + backup blocks (+ one slack for a background victim) must cover
// every block of every chip.
func auditNflex(t *testing.T, f *FTL) {
	t.Helper()
	g := f.Device().Geometry()
	for chip := 0; chip < g.Chips(); chip++ {
		seen := make(map[int]string)
		place := func(blk int, where string) {
			if blk < 0 {
				return
			}
			if prev, dup := seen[blk]; dup {
				t.Fatalf("chip %d block %d in both %s and %s", chip, blk, prev, where)
			}
			seen[blk] = where
		}
		cs := &f.chips[chip]
		for l, cur := range cs.phases {
			place(cur.blk, fmt.Sprintf("phase-%d-active", l))
		}
		for l := range cs.queues {
			q := &cs.queues[l]
			for i := 0; i < q.Len(); i++ {
				place(q.At(i), fmt.Sprintf("phase-%d-queue", l))
			}
		}
		place(cs.backup.cur, "backup-current")
		for _, b := range cs.backup.retired {
			place(b, "backup-retired")
		}
		for _, b := range f.Base.Pools[chip].FullBlocks() {
			place(b, "full")
		}
		total := len(seen) + f.Base.Pools[chip].FreeCount()
		if total != g.BlocksPerChip && total != g.BlocksPerChip-1 {
			t.Fatalf("chip %d accounts for %d of %d blocks", chip, total, g.BlocksPerChip)
		}
	}
	// Mapping consistency.
	var sum int64
	for chip := 0; chip < g.Chips(); chip++ {
		for blk := 0; blk < g.BlocksPerChip; blk++ {
			sum += int64(f.Base.Map.ValidCount(nand.BlockAddr{Chip: chip, Block: blk}))
		}
	}
	var mapped int64
	for lpn := ftl.LPN(0); int64(lpn) < f.LogicalPages(); lpn++ {
		if ppn, ok := f.Base.Map.Lookup(lpn); ok {
			mapped++
			if back, ok2 := f.Base.Map.LPNAt(ppn); !ok2 || back != lpn {
				t.Fatalf("mapping round trip broken at LPN %d", lpn)
			}
		}
	}
	if sum != mapped {
		t.Fatalf("valid counts %d != mapped %d", sum, mapped)
	}
}

// TestInvariantsTLCHeavy: block audit after the TLC sustained-GC scenario.
func TestInvariantsTLCHeavy(t *testing.T) {
	f := newTLC(t)
	src := rng.New(37)
	logical := f.LogicalPages()
	z := rng.NewZipf(src, int(logical), 0.95)
	now := sim.Time(0)
	var err error
	for i := int64(0); i < 3*logical; i++ {
		now, err = f.Write(ftl.LPN(z.Next()), now, src.Float64())
		if err != nil {
			t.Fatal(err)
		}
		if i%888 == 887 {
			f.Idle(now, now+250*sim.Millisecond)
			now += 250 * sim.Millisecond
		}
	}
	auditNflex(t, f)
}

// oneSpare is the spare area of a device with one programmed page.
type oneSpare struct {
	ppn   nand.PPN
	spare [ftl.SpareSize]byte
}

func (o oneSpare) PeekSpare(ppn nand.PPN) ([ftl.SpareSize]byte, bool) { return o.spare, ppn == o.ppn }

// TestMapperRoundTrip: a mapper over the mounted device's page numbering and
// the geometry's PPN arithmetic serve a three-level device's pages, finest
// level included. The page is never programmed, so its LPN 5 is in a fake
// spare area.
func TestMapperRoundTrip(t *testing.T) {
	g := tinyGeometry()
	f := newTLC(t)
	a := pageFor(1, 2, 3, 2)
	ppn := g.PPNOf(a)
	if g.AddrOfPPN(ppn) != a {
		t.Fatalf("addr round trip: %v -> %d -> %v", a, ppn, g.AddrOfPPN(ppn))
	}
	m := ftl.NewMapper(*f.Base.Dev.Layout(), f.LogicalPages(), oneSpare{ppn, [ftl.SpareSize]byte(ftl.SpareForLPN(5))})
	m.Update(5, ppn)
	if got, ok := m.Lookup(5); !ok || got != ppn {
		t.Error("lookup failed")
	}
	if l, ok := m.LPNAt(ppn); !ok || l != 5 {
		t.Error("inverse lookup failed")
	}
	blkAddr := nand.BlockAddr{Chip: 1, Block: 2}
	if m.ValidCount(blkAddr) != 1 {
		t.Error("valid count wrong")
	}
	if !m.Invalidate(5) || m.Invalidate(5) {
		t.Error("invalidate semantics wrong")
	}
	if m.ValidCount(blkAddr) != 0 {
		t.Error("valid count after invalidate")
	}
}

func TestSpareBlockNoRoundTrip(t *testing.T) {
	var sp [ftl.SpareSize]byte
	for _, c := range []struct{ blk, lvl int }{{42, 2}, {0, 0}, {1<<30 - 1, 3}} {
		blk, lvl, ok := blockNoFromSpare(spareBlockNo(&sp, c.blk, c.lvl))
		if !ok || blk != c.blk || lvl != c.lvl {
			t.Errorf("round trip of block %d level %d = %d,%d,%v", c.blk, c.lvl, blk, lvl, ok)
		}
	}
	if _, _, ok := blockNoFromSpare([]byte{1, 2}); ok {
		t.Error("short spare decoded")
	}
	// The parity page it labels is one accumulator's snapshot: a token wide,
	// so page and spare fill the device's inline slot.
	for c, cs := range newTLC(t).chips {
		for l, acc := range cs.pbuf {
			if acc.Width() != ftl.TokenSize {
				t.Fatalf("chip %d level %d: parity accumulator is %d bytes wide, want %d", c, l, acc.Width(), ftl.TokenSize)
			}
		}
	}
}

func TestNLevelPageShapes(t *testing.T) {
	// pageFor produces addresses the device accepts/rejects consistently.
	f := newTLC(t)
	if _, err := f.Device().Program(pageFor(0, 0, 0, 0), nil, nil, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := f.Device().Program(pageFor(0, 0, 0, 2), nil, nil, 0); err == nil {
		t.Error("skipping refinement accepted")
	}
}

// TestGCPolicyReachesThePools: Config.GC selects the victim heuristic of the
// registry-built nflexTLC. The scheme used to build its pools by hand and
// never set their policy, so `-ftl nflexTLC -gc costbenefit` silently ran
// greedy; with NewBase wiring the pools, the two policies must pick
// different victims on a GC-heavy skewed run.
func TestGCPolicyReachesThePools(t *testing.T) {
	run := func(policy ftl.GCPolicy) (ftl.Stats, uint64) {
		cfg := ftl.DefaultConfig()
		cfg.GC = policy
		built, err := ftl.BuildFTL("nflexTLC", ftl.BuildEnv{Config: cfg, Flex: ftl.DefaultFlexParams()})
		if err != nil {
			t.Fatal(err)
		}
		f := built.(*FTL)
		for c, p := range f.Base.Pools {
			if p.Policy != policy {
				t.Fatalf("chip %d pool runs %v, configured %v", c, p.Policy, policy)
			}
		}
		src := rng.New(41)
		logical := f.LogicalPages()
		z := rng.NewZipf(src, int(logical), 0.9)
		now := sim.Time(0)
		for i := int64(0); i < 3*logical; i++ {
			now, err = f.Write(ftl.LPN(z.Next()), now, src.Float64())
			if err != nil {
				t.Fatalf("%v write %d: %v", policy, i, err)
			}
		}
		return f.Stats(), f.MappingHash()
	}
	greedy, greedyMap := run(ftl.GCGreedy)
	cb, cbMap := run(ftl.GCCostBenefit)
	if greedy.GCCopies == 0 || cb.GCCopies == 0 {
		t.Fatalf("cell is not GC-heavy: greedy %+v, cost-benefit %+v", greedy, cb)
	}
	if greedy == cb && greedyMap == cbMap {
		t.Error("cost-benefit run is identical to greedy: the policy never reached the victim picker")
	}
}
