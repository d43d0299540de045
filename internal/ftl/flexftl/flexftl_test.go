// Package flexftl holds the scheme-level tests of ftl.NewFlexFTL and its
// recovery and rebuild procedures.
package flexftl

import (
	"testing"

	"flexftl/internal/core"
	"flexftl/internal/ftl"
	"flexftl/internal/ftl/ftltest"
	"flexftl/internal/nand"
	"flexftl/internal/rng"
	"flexftl/internal/sim"
)

func fixture(t testing.TB) ftltest.Fixture {
	f := newFlex(t, nand.TestGeometry())
	return ftltest.Fixture{F: f, B: f.Base}
}

func newFlex(t testing.TB, g nand.Geometry) *ftl.Kernel {
	t.Helper()
	dev, err := nand.NewDevice(nand.Config{
		Geometry: g,
		Timing:   nand.DefaultTiming(),
		Rules:    core.RPS,
	})
	if err != nil {
		t.Fatal(err)
	}
	f, err := ftl.NewFlexFTL(dev, ftl.DefaultConfig(), ftl.DefaultFlexParams())
	if err != nil {
		t.Fatal(err)
	}
	return f
}

func TestConformance(t *testing.T) {
	ftltest.Run(t, fixture)
}

func TestName(t *testing.T) {
	if fixture(t).F.Name() != "flexFTL" {
		t.Error("name wrong")
	}
}

func TestRejectsFPSDevice(t *testing.T) {
	dev, err := nand.NewDevice(nand.Config{
		Geometry: nand.TestGeometry(), Timing: nand.DefaultTiming(), Rules: core.FPS,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ftl.NewFlexFTL(dev, ftl.DefaultConfig(), ftl.DefaultFlexParams()); err == nil {
		t.Error("flexFTL accepted an FPS-only device")
	}
}

func TestParamsValidate(t *testing.T) {
	bad := []ftl.FlexParams{
		{UHigh: 0.5, ULow: 0.8, QuotaFraction: 0.05}, // inverted
		{UHigh: 1.5, ULow: 0.1, QuotaFraction: 0.05},
		{UHigh: 0.8, ULow: -0.1, QuotaFraction: 0.05},
		{UHigh: 0.8, ULow: 0.1, QuotaFraction: 0},
		{UHigh: 0.8, ULow: 0.1, QuotaFraction: 2},
	}
	for i, p := range bad {
		if err := p.Validate(); err == nil {
			t.Errorf("case %d accepted: %+v", i, p)
		}
	}
	if err := ftl.DefaultFlexParams().Validate(); err != nil {
		t.Error(err)
	}
}

// TestHighUtilServedWithLSB: under sustained high buffer utilization and a
// healthy quota, writes land on fast LSB pages — the peak-bandwidth path.
func TestHighUtilServedWithLSB(t *testing.T) {
	f := newFlex(t, nand.TestGeometry())
	now := sim.Time(0)
	// While the quota lasts, every high-utilization write must land on a
	// fast LSB page.
	n := int(f.Snapshot().InitialQuota)
	for i := 0; i < n; i++ {
		done, err := f.Write(ftl.LPN(i), now, 0.95)
		if err != nil {
			t.Fatal(err)
		}
		now = done
	}
	st := f.Stats()
	if st.HostWritesLSB != int64(n) {
		t.Errorf("high-util writes used %d LSB of %d", st.HostWritesLSB, n)
	}
	if f.Quota() != 0 {
		t.Errorf("quota = %d after spending exactly q0 LSB writes, want 0", f.Quota())
	}
}

// TestLowUtilServedWithMSB: with a sleepy buffer the policy spends slow MSB
// pages (once slow blocks exist).
func TestLowUtilServedWithMSB(t *testing.T) {
	f := newFlex(t, nand.TestGeometry())
	g := f.Dev.Geometry()
	now := sim.Time(0)
	// Phase 1: force fast-block completions so slow blocks exist everywhere.
	primeWrites := g.Chips() * g.LSBPagesPerBlock()
	for i := 0; i < primeWrites; i++ {
		done, err := f.Write(ftl.LPN(i), now, 0.95)
		if err != nil {
			t.Fatal(err)
		}
		now = done
	}
	for c := 0; c < g.Chips(); c++ {
		if f.SlowQueueLen(c) == 0 {
			t.Fatalf("chip %d has no slow block after priming", c)
		}
	}
	st0 := f.Stats()
	q0 := f.Quota()
	// Phase 2: low utilization — MSB preferred; when a chip's slow queue
	// momentarily drains, the corner case falls back to LSB (footnote 1),
	// which refills the queue. MSB must still dominate, and q must track
	// the type split exactly.
	const n = 100
	for i := 0; i < n; i++ {
		done, err := f.Write(ftl.LPN(primeWrites+i), now, 0.01)
		if err != nil {
			t.Fatal(err)
		}
		now = done
	}
	st1 := f.Stats()
	msb := st1.HostWritesMSB - st0.HostWritesMSB
	lsb := st1.HostWritesLSB - st0.HostWritesLSB
	if msb <= lsb {
		t.Errorf("low-util split %d MSB / %d LSB: MSB must dominate", msb, lsb)
	}
	if f.Quota() != q0+msb-lsb {
		t.Errorf("quota %d, want %d (+1 per MSB, -1 per LSB)", f.Quota(), q0+msb-lsb)
	}
}

// TestMidUtilAlternates: between the thresholds the policy alternates page
// types, the FPS-like fallback mode.
func TestMidUtilAlternates(t *testing.T) {
	f := newFlex(t, nand.TestGeometry())
	g := f.Dev.Geometry()
	now := sim.Time(0)
	primeWrites := g.Chips() * g.LSBPagesPerBlock()
	for i := 0; i < primeWrites; i++ {
		done, err := f.Write(ftl.LPN(i), now, 0.95)
		if err != nil {
			t.Fatal(err)
		}
		now = done
	}
	st0 := f.Stats()
	const n = 200
	for i := 0; i < n; i++ {
		done, err := f.Write(ftl.LPN(primeWrites+i), now, 0.5)
		if err != nil {
			t.Fatal(err)
		}
		now = done
	}
	st1 := f.Stats()
	lsb := st1.HostWritesLSB - st0.HostWritesLSB
	msb := st1.HostWritesMSB - st0.HostWritesMSB
	if lsb != msb {
		t.Errorf("mid-util split %d LSB / %d MSB, want even alternation", lsb, msb)
	}
}

// TestQuotaExhaustionForcesAlternation: with q driven to zero, high-util
// writes fall back to alternation — the anti-cliff mechanism of Section 3.2.
func TestQuotaExhaustionForcesAlternation(t *testing.T) {
	g := nand.TestGeometry()
	dev, err := nand.NewDevice(nand.Config{Geometry: g, Timing: nand.DefaultTiming(), Rules: core.RPS})
	if err != nil {
		t.Fatal(err)
	}
	params := ftl.DefaultFlexParams()
	params.QuotaFraction = 0.001 // tiny quota: q0 = 1
	f, err := ftl.NewFlexFTL(dev, ftl.DefaultConfig(), params)
	if err != nil {
		t.Fatal(err)
	}
	now := sim.Time(0)
	// Prime slow blocks so MSB writes are possible.
	primeWrites := g.Chips() * g.LSBPagesPerBlock()
	for i := 0; i < primeWrites; i++ {
		done, werr := f.Write(ftl.LPN(i), now, 0.95)
		if werr != nil {
			t.Fatal(werr)
		}
		now = done
	}
	if f.Quota() > 0 {
		t.Fatalf("quota %d still positive after priming", f.Quota())
	}
	st0 := f.Stats()
	const n = 100
	for i := 0; i < n; i++ {
		done, werr := f.Write(ftl.LPN(primeWrites+i), now, 0.95)
		if werr != nil {
			t.Fatal(werr)
		}
		now = done
	}
	st1 := f.Stats()
	lsb := st1.HostWritesLSB - st0.HostWritesLSB
	msb := st1.HostWritesMSB - st0.HostWritesMSB
	// Alternation toggles per chip; with round-robin placement the global
	// split can be off by at most one per chip (plus corner-case
	// fallbacks when a slow queue momentarily drains).
	if diff := lsb - msb; diff < -8 || diff > 8 {
		t.Errorf("post-quota split %d LSB / %d MSB, want near-even alternation", lsb, msb)
	}
	if lsb == 0 || msb == 0 {
		t.Errorf("post-quota writes one-sided: %d LSB / %d MSB", lsb, msb)
	}
}

// TestTwoPhaseOrdering: every block the device sees is programmed in the
// RPSfull (2PO) order — verified indirectly by the RPS device accepting all
// programs, and directly by sampling block states: a block with any MSB
// written must have all LSBs written.
func TestTwoPhaseOrdering(t *testing.T) {
	f := newFlex(t, nand.TestGeometry())
	src := rng.New(21)
	g := f.Dev.Geometry()
	logical := f.LogicalPages()
	now := sim.Time(0)
	for i := int64(0); i < 2*logical; i++ {
		done, err := f.Write(ftl.LPN(src.Int63n(logical)), now, src.Float64())
		if err != nil {
			t.Fatal(err)
		}
		now = done
	}
	checked := 0
	for chip := 0; chip < g.Chips(); chip++ {
		for blk := 0; blk < g.BlocksPerChip; blk++ {
			snap := f.Dev.BlockStateSnapshot(nand.BlockAddr{Chip: chip, Block: blk})
			anyMSB := false
			for wl := 0; wl < g.WordLinesPerBlock; wl++ {
				if snap.Written(core.Page{WL: wl, Type: core.MSB}) {
					anyMSB = true
					break
				}
			}
			if !anyMSB {
				continue
			}
			checked++
			for wl := 0; wl < g.WordLinesPerBlock; wl++ {
				if !snap.Written(core.Page{WL: wl, Type: core.LSB}) {
					t.Fatalf("block %d/%d violates 2PO: MSB written but LSB(%d) missing", chip, blk, wl)
				}
			}
		}
	}
	if checked == 0 {
		t.Error("no block reached the MSB phase; workload too small")
	}
}

// TestPerBlockParityRatio: exactly one backup (parity) write per completed
// fast block — W LSB pages share one parity page, versus parityFTL's W/2
// parity pages.
func TestPerBlockParityRatio(t *testing.T) {
	f := newFlex(t, nand.TestGeometry())
	src := rng.New(31)
	g := f.Dev.Geometry()
	logical := f.LogicalPages()
	now := sim.Time(0)
	for i := int64(0); i < 3*logical; i++ {
		done, err := f.Write(ftl.LPN(src.Int63n(logical)), now, src.Float64())
		if err != nil {
			t.Fatal(err)
		}
		now = done
	}
	st := f.Stats()
	lsbPrograms := st.HostWritesLSB + st.GCCopiesLSB
	completedFastBlocks := lsbPrograms / int64(g.LSBPagesPerBlock())
	if st.BackupWrites == 0 {
		t.Fatal("no parity backups written")
	}
	// One parity per completed fast block (+/- blocks still filling).
	if st.BackupWrites > completedFastBlocks+int64(g.Chips()) ||
		st.BackupWrites < completedFastBlocks-int64(g.Chips()) {
		t.Errorf("backup writes %d vs completed fast blocks %d", st.BackupWrites, completedFastBlocks)
	}
	// The headline claim: backup overhead per LSB page is 1/W, an order of
	// magnitude below parityFTL's 1/2.
	perLSB := float64(st.BackupWrites) / float64(lsbPrograms)
	want := 1.0 / float64(g.LSBPagesPerBlock())
	if perLSB > want*1.5 {
		t.Errorf("parity overhead %.4f per LSB page, want ~%.4f", perLSB, want)
	}
}

// TestBackupBlocksRecycled: parity backup blocks must be erased and freed
// once all their parities go stale; a long run must not leak them.
func TestBackupBlocksRecycled(t *testing.T) {
	f := newFlex(t, nand.TestGeometry())
	src := rng.New(41)
	logical := f.LogicalPages()
	now := sim.Time(0)
	for i := int64(0); i < 6*logical; i++ {
		done, err := f.Write(ftl.LPN(src.Int63n(logical)), now, src.Float64())
		if err != nil {
			t.Fatal(err)
		}
		now = done
	}
	for c := 0; c < f.Device().Geometry().Chips(); c++ {
		// Retired blocks awaiting recycling are bounded by the slow queue
		// depth (their live parities) plus one in-flight.
		if retired := len(f.Snapshot().Chips[c].RetiredBackups); retired > f.SlowQueueLen(c)+1 {
			t.Errorf("chip %d: %d retired backup blocks for %d queued slow blocks",
				c, retired, f.SlowQueueLen(c))
		}
	}
}

// TestIdleGCRaisesQuota: background GC copies via MSB pages, so an idle
// window under space pressure must raise q.
func TestIdleGCRaisesQuota(t *testing.T) {
	// A large quota keeps high-utilization traffic on LSB pages, so slow
	// blocks pile up in the queue and space pressure builds — the state in
	// which background GC should consume MSB pages and raise q.
	g := nand.TestGeometry()
	dev, err := nand.NewDevice(nand.Config{Geometry: g, Timing: nand.DefaultTiming(), Rules: core.RPS})
	if err != nil {
		t.Fatal(err)
	}
	params := ftl.DefaultFlexParams()
	params.QuotaFraction = 0.5
	f, err := ftl.NewFlexFTL(dev, ftl.DefaultConfig(), params)
	if err != nil {
		t.Fatal(err)
	}
	src := rng.New(51)
	logical := f.LogicalPages()
	z := rng.NewZipf(src, int(logical), 0.9)
	now := sim.Time(0)
	for i := int64(0); i < 2*logical; i++ {
		done, werr := f.Write(ftl.LPN(z.Next()), now, 0.95)
		if werr != nil {
			t.Fatal(werr)
		}
		now = done
	}
	if !f.BelowGCThreshold() {
		t.Skip("workload did not create space pressure")
	}
	slow := 0
	for c := 0; c < g.Chips(); c++ {
		slow += f.SlowQueueLen(c)
	}
	if slow == 0 {
		t.Skip("no slow blocks queued; nothing for BGC to consume")
	}
	q0 := f.Quota()
	st0 := f.Stats()
	free0 := f.TotalFreeBlocks()
	f.Idle(now, now+60*sim.Second)
	st1 := f.Stats()
	dMSB := st1.GCCopiesMSB - st0.GCCopiesMSB
	dLSB := st1.GCCopiesLSB - st0.GCCopiesLSB
	if st1.BackgroundGCs == st0.BackgroundGCs {
		t.Fatal("no background GC invocations recorded")
	}
	if dMSB+dLSB == 0 {
		t.Fatal("background GC relocated nothing")
	}
	// Accounting invariant: q moves by exactly the background copy balance,
	// clamped at the initial budget.
	if got, lo, hi := f.Quota(), q0-dLSB, q0+dMSB; int64(got) < lo || int64(got) > hi {
		t.Errorf("quota %d outside accounting bounds [%d,%d]", got, lo, hi)
	}
	if budget := f.Snapshot().InitialQuota; f.Quota() > budget {
		t.Errorf("quota %d exceeded its budget %d", f.Quota(), budget)
	}
	// And the reclaim freed space for future fast blocks.
	if f.TotalFreeBlocks() <= free0 {
		t.Errorf("background GC freed no blocks: %d -> %d", free0, f.TotalFreeBlocks())
	}
}
