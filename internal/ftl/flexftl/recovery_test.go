package flexftl

import (
	"testing"

	"flexftl/internal/core"
	"flexftl/internal/ftl"
	"flexftl/internal/nand"
	"flexftl/internal/rng"
	"flexftl/internal/sim"
)

// primeToMSBPhase drives the FTL until chip 0's active slow block has at
// least one MSB program in flight, returning the virtual time.
func primeToMSBPhase(t *testing.T, f *ftl.Kernel) sim.Time {
	t.Helper()
	g := f.Dev.Geometry()
	now := sim.Time(0)
	lpn := ftl.LPN(0)
	// Fill fast blocks under high utilization until slow blocks exist, then
	// push MSB writes with low utilization.
	for i := 0; i < g.Chips()*g.LSBPagesPerBlock(); i++ {
		done, err := f.Write(lpn, now, 0.95)
		if err != nil {
			t.Fatal(err)
		}
		now = done
		lpn++
	}
	for stream0(f, 0).SlowProgress == 0 {
		done, err := f.Write(lpn, now, 0.01)
		if err != nil {
			t.Fatal(err)
		}
		now = done
		lpn++
	}
	return now
}

// stream0 is the chip's stream-0 two-phase state — all of it for the
// single-stream flexFTL.
func stream0(f *ftl.Kernel, chip int) ftl.StreamSnapshot {
	return f.Snapshot().Chips[chip].Streams[0]
}

// TestPowerFailRecovery is the Figure 7(b) scenario end to end: a power cut
// during an MSB program destroys the paired LSB page; the reboot procedure
// reconstructs it from the per-block parity page and re-homes the data.
func TestPowerFailRecovery(t *testing.T) {
	f := newFlex(t, nand.TestGeometry())
	now := primeToMSBPhase(t, f)
	g := f.Dev.Geometry()

	// Identify the vulnerable page: paired LSB of the last in-flight MSB.
	chip := 0
	blk := stream0(f, chip).ActiveSlow()
	wl := stream0(f, chip).SlowProgress - 1
	lsbAddr := nand.PageAddr{
		BlockAddr: nand.BlockAddr{Chip: chip, Block: blk},
		Page:      pg(wl, false),
	}
	lostLPN, live := f.Map.LPNAt(g.PPNOf(lsbAddr))
	if !live {
		t.Fatal("test setup: paired LSB holds no live data")
	}

	// Power cut: flexFTL wrote no per-MSB backup, so the device corrupts
	// the paired LSB.
	if !f.Dev.InjectPowerLoss(nand.BlockAddr{Chip: chip, Block: blk}) {
		t.Fatal("no in-flight MSB program to interrupt")
	}
	if _, err := f.Read(lostLPN, now); err == nil {
		t.Fatal("paired LSB still readable after power cut; corruption not injected")
	}

	rep, err := f.Recover(now)
	if err != nil {
		t.Fatalf("recovery failed: %v", err)
	}
	if len(rep.Recovered) != 1 || rep.Recovered[0] != lostLPN {
		t.Fatalf("recovered LPNs = %v, want [%d]", rep.Recovered, lostLPN)
	}
	if len(rep.Dropped) != 1 {
		t.Errorf("dropped in-flight MSB writes = %v, want exactly 1", rep.Dropped)
	}
	if rep.PagesRead == 0 || rep.Duration() <= 0 {
		t.Errorf("report incomplete: %+v", rep)
	}
	// The lost data is readable again at its new location.
	if _, err := f.Read(lostLPN, rep.End); err != nil {
		t.Errorf("recovered LPN unreadable: %v", err)
	}
	// And the FTL keeps working afterwards.
	doneW, err := f.Write(lostLPN, rep.End, 0.5)
	if err != nil {
		t.Fatalf("write after recovery: %v", err)
	}
	if _, err := f.Read(lostLPN, doneW); err != nil {
		t.Errorf("read after post-recovery write: %v", err)
	}
}

// pg is a tiny page-literal helper for recovery tests.
func pg(wl int, msb bool) core.Page {
	t := core.LSB
	if msb {
		t = core.MSB
	}
	return core.Page{WL: wl, Type: t}
}

// TestRecoveryWithoutCrashIsCheap: recovering a healthy system re-reads LSB
// pages of active blocks only and recovers nothing.
func TestRecoveryWithoutCrash(t *testing.T) {
	f := newFlex(t, nand.TestGeometry())
	now := primeToMSBPhase(t, f)
	// Acknowledge the in-flight program (power did not fail).
	f.Dev.AckProgram(nand.BlockAddr{Chip: 0, Block: stream0(f, 0).ActiveSlow()})
	rep, err := f.Recover(now)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Recovered) != 0 || len(rep.Dropped) != 0 {
		t.Errorf("healthy recovery recovered %v / dropped %v", rep.Recovered, rep.Dropped)
	}
	if rep.PagesRead == 0 {
		t.Error("healthy recovery read nothing; parity recomputation skipped")
	}
}

// TestRecoveryStaleLSB: if the destroyed LSB page held only stale data, the
// procedure recomputes parity but re-homes nothing.
func TestRecoveryStaleLSB(t *testing.T) {
	f := newFlex(t, nand.TestGeometry())
	now := primeToMSBPhase(t, f)
	g := f.Dev.Geometry()
	chip := 0
	blk := stream0(f, chip).ActiveSlow()
	wl := stream0(f, chip).SlowProgress - 1
	lsbPPN := g.PPNOf(nand.PageAddr{
		BlockAddr: nand.BlockAddr{Chip: chip, Block: blk},
		Page:      pg(wl, false),
	})
	lostLPN, live := f.Map.LPNAt(lsbPPN)
	if !live {
		t.Fatal("setup: LSB already stale")
	}
	// Overwrite the LPN elsewhere so the physical page goes stale.
	done, err := f.Write(lostLPN, now, 0.95)
	if err != nil {
		t.Fatal(err)
	}
	now = done
	if !f.Dev.InjectPowerLoss(nand.BlockAddr{Chip: chip, Block: blk}) {
		t.Skip("MSB window closed by the overwrite path")
	}
	rep, err := f.Recover(now)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Recovered) != 0 {
		t.Errorf("stale page re-homed: %v", rep.Recovered)
	}
	// The live copy is unaffected.
	if _, err := f.Read(lostLPN, rep.End); err != nil {
		t.Errorf("live copy unreadable: %v", err)
	}
}

// TestRecoveryReadOverhead reproduces the Section 3.3 estimate: the scan
// reads the LSB pages of (up to) two active blocks per chip; with chips
// scanning in parallel the reboot overhead is a few milliseconds, and the
// total page-read count matches chips x blocks x LSB pages.
func TestRecoveryReadOverhead(t *testing.T) {
	f := newFlex(t, nand.TestGeometry())
	now := primeToMSBPhase(t, f)
	g := f.Dev.Geometry()
	tm := f.Dev.Timing()
	f.Dev.AckProgram(nand.BlockAddr{Chip: 0, Block: stream0(f, 0).ActiveSlow()})
	rep, err := f.Recover(now)
	if err != nil {
		t.Fatal(err)
	}
	// Upper bound: every chip scans its active slow block (W LSB reads) and
	// its active fast block (< W reads).
	maxReads := g.Chips() * 2 * g.LSBPagesPerBlock()
	if rep.PagesRead > maxReads {
		t.Errorf("recovery read %d pages, bound %d", rep.PagesRead, maxReads)
	}
	// Chips scan in parallel: elapsed <= 2W serial reads (+ bus sharing
	// slack between chips on a channel).
	bound := sim.Time(2*g.LSBPagesPerBlock()) * (tm.Read + 2*tm.BusXfer) * 2
	if rep.Duration() > bound {
		t.Errorf("recovery took %v, parallel-scan bound %v", rep.Duration(), bound)
	}
}

// TestRecoveryAfterMetadataLoss: the reboot lost the in-memory parity
// location table; recovery must find the parity page by scanning the backup
// blocks' spare areas (the paper's inverse mapping).
func TestRecoveryAfterMetadataLoss(t *testing.T) {
	f := newFlex(t, nand.TestGeometry())
	now := primeToMSBPhase(t, f)
	g := f.Dev.Geometry()
	chip := 0
	blk := stream0(f, chip).ActiveSlow()
	wl := stream0(f, chip).SlowProgress - 1
	lostLPN, live := f.Map.LPNAt(g.PPNOf(nand.PageAddr{
		BlockAddr: nand.BlockAddr{Chip: chip, Block: blk},
		Page:      pg(wl, false),
	}))
	if !live {
		t.Fatal("setup: paired LSB not live")
	}
	if !f.Dev.InjectPowerLoss(nand.BlockAddr{Chip: chip, Block: blk}) {
		t.Fatal("no in-flight MSB program")
	}
	f.ForgetParityRefs() // simulate the reboot dropping runtime metadata
	rep, err := f.Recover(now)
	if err != nil {
		t.Fatalf("scan-based recovery failed: %v", err)
	}
	if len(rep.Recovered) != 1 || rep.Recovered[0] != lostLPN {
		t.Fatalf("recovered = %v, want [%d]", rep.Recovered, lostLPN)
	}
	if _, err := f.Read(lostLPN, rep.End); err != nil {
		t.Errorf("recovered LPN unreadable: %v", err)
	}
	// The scan must have read more pages than the ref-based fast path (it
	// walks backup blocks), visible in the report.
	if rep.PagesRead == 0 {
		t.Error("scan read nothing")
	}
}

// TestScanPicksNewestParity: when the same in-chip block number was a fast
// block twice, the scan must use the newest parity page for it.
func TestScanPicksNewestParity(t *testing.T) {
	f := newFlex(t, nand.TestGeometry())
	g := f.Dev.Geometry()
	src := rng.New(7)
	logical := f.LogicalPages()
	now := sim.Time(0)
	// Drive enough traffic that blocks cycle through GC and get reused as
	// fast blocks, producing repeated protected-block numbers in the
	// backup stream.
	for i := int64(0); i < 4*logical; i++ {
		done, err := f.Write(ftl.LPN(src.Int63n(logical)), now, 0.9)
		if err != nil {
			t.Fatal(err)
		}
		now = done
		if i%500 == 499 {
			f.Idle(now, now+200*sim.Millisecond)
		}
	}
	// Find a chip mid-MSB-phase; force the crash and scan-based recovery.
	for chip := 0; chip < g.Chips(); chip++ {
		if f.SlowQueueLen(chip) == 0 || stream0(f, chip).SlowProgress == 0 {
			continue
		}
		blk := stream0(f, chip).ActiveSlow()
		if !f.Dev.InjectPowerLoss(nand.BlockAddr{Chip: chip, Block: blk}) {
			continue
		}
		f.ForgetParityRefs()
		rep, err := f.Recover(now)
		if err != nil {
			t.Fatalf("recovery after reuse: %v", err)
		}
		for _, lpn := range rep.Recovered {
			if _, err := f.Read(lpn, rep.End); err != nil {
				t.Errorf("recovered LPN %d unreadable: %v", lpn, err)
			}
		}
		return
	}
	t.Skip("no chip was mid-MSB-phase at the end of the run")
}

// TestRecoveryDeterminism: recovery after identical histories yields
// identical reports.
func TestRecoveryDeterminism(t *testing.T) {
	run := func() (ftl.RecoveryReport, error) {
		f := newFlex(t, nand.TestGeometry())
		now := primeToMSBPhase(t, f)
		f.Dev.InjectPowerLoss(nand.BlockAddr{Chip: 0, Block: stream0(f, 0).ActiveSlow()})
		return f.Recover(now)
	}
	a, errA := run()
	b, errB := run()
	if errA != nil || errB != nil {
		t.Fatal(errA, errB)
	}
	if a.PagesRead != b.PagesRead || a.Duration() != b.Duration() ||
		len(a.Recovered) != len(b.Recovered) {
		t.Errorf("recovery not deterministic: %+v vs %+v", a, b)
	}
}

// TestMultiChipPowerLoss: power loss touches every chip's active slow block;
// recovery handles all of them in one pass.
func TestMultiChipPowerLoss(t *testing.T) {
	f := newFlex(t, nand.TestGeometry())
	g := f.Dev.Geometry()
	now := sim.Time(0)
	lpn := ftl.LPN(0)
	src := rng.New(3)
	// Drive every chip into its MSB phase.
	for i := 0; i < g.Chips()*g.LSBPagesPerBlock(); i++ {
		done, err := f.Write(lpn, now, 0.95)
		if err != nil {
			t.Fatal(err)
		}
		now = done
		lpn++
	}
	for chip := 0; chip < g.Chips(); chip++ {
		for stream0(f, chip).SlowProgress == 0 {
			done, err := f.Write(lpn, now, 0.01)
			if err != nil {
				t.Fatal(err)
			}
			now = done
			lpn++
		}
	}
	_ = src
	injected := 0
	for chip := 0; chip < g.Chips(); chip++ {
		if f.SlowQueueLen(chip) > 0 &&
			f.Dev.InjectPowerLoss(nand.BlockAddr{Chip: chip, Block: stream0(f, chip).ActiveSlow()}) {
			injected++
		}
	}
	if injected == 0 {
		t.Fatal("no power-loss windows found")
	}
	rep, err := f.Recover(now)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Recovered)+len(rep.Dropped) == 0 {
		t.Error("multi-chip recovery found nothing to do")
	}
	// Every recovered LPN reads back.
	for _, lpn := range rep.Recovered {
		if _, err := f.Read(lpn, rep.End); err != nil {
			t.Errorf("recovered LPN %d unreadable: %v", lpn, err)
		}
	}
}
