// Package ftltest is a conformance suite run against every FTL
// implementation: write/read round trips, overwrite invalidation, sustained
// writing far past device capacity (forcing garbage collection), idle-window
// background GC, and determinism. Each FTL's test package invokes Run with a
// fixture constructor, and the registry-wide conformance test (in this
// package's external tests) drives every registered scheme, MLC kernels and
// nflexTLC alike, through the same checks — every scheme mounts an ftl.Base,
// so every one gets the white-box assertions. Scheme-specific behaviour
// (backup accounting, 2PO invariants, recovery) stays in the scheme's own
// tests.
package ftltest

import (
	"testing"

	"flexftl/internal/ftl"
	"flexftl/internal/obs"
	"flexftl/internal/rng"
	"flexftl/internal/sim"
	"flexftl/internal/workload"
)

// Fixture bundles an FTL with its Base for white-box assertions.
type Fixture struct {
	F ftl.FTL
	B *ftl.Base
	// IdleConsumesFree marks schemes whose idle work legitimately converts
	// free blocks into pre-positioned capacity (rtfFTL's return-to-fast
	// padding); for them the idle test asserts erase progress instead of a
	// higher free count.
	IdleConsumesFree bool
}

// Maker constructs a fresh fixture (device included) for one subtest.
type Maker func(t testing.TB) Fixture

// Run executes the conformance suite, including the white-box checks that
// need the scheme's Base and device.
func Run(t *testing.T, mk Maker) {
	t.Run("WriteReadBack", func(t *testing.T) { testWriteReadBack(t, mk(t).F) })
	t.Run("CompletionMonotonePerIssue", func(t *testing.T) { testMonotone(t, mk(t).F) })
	t.Run("OverwriteInvalidates", func(t *testing.T) { testOverwrite(t, mk(t)) })
	t.Run("SustainedWritesForceGC", func(t *testing.T) { testSustainedGC(t, mk(t).F) })
	t.Run("IdleReclaimsFreeBlocks", func(t *testing.T) { testIdleReclaim(t, mk(t)) })
	t.Run("Determinism", func(t *testing.T) {
		testDeterminism(t, func() ftl.FTL { return mk(t).F })
	})
	t.Run("ReadUnmappedFails", func(t *testing.T) { testReadUnmapped(t, mk(t).F) })
	t.Run("TrimInvalidates", func(t *testing.T) { testTrim(t, mk(t)) })
	t.Run("StatsConsistency", func(t *testing.T) { testStatsConsistency(t, mk(t).F) })
	t.Run("WorkloadSoak", func(t *testing.T) { testWorkloadSoak(t, mk(t).F) })
	t.Run("GCEventsRecorded", func(t *testing.T) { testGCEvents(t, mk(t).F) })
}

// kindCounter is an obs.Sink tallying events by kind.
type kindCounter map[obs.Kind]int64

func (c kindCounter) WriteEvent(e *obs.Event) error { c[e.Kind]++; return nil }
func (c kindCounter) Close() error                  { return nil }

// testGCEvents: with a recorder attached, collection is visible as events on
// every scheme, because every scheme collects through the one Base — a
// bgc_start per background victim, a bgc_finish per victim erased, and a
// gc_foreground span per whole-victim collection.
func testGCEvents(t *testing.T, f ftl.FTL) {
	counts := kindCounter{}
	rec := obs.NewRecorder(obs.Options{Sink: counts})
	f.(interface{ SetRecorder(*obs.Recorder) }).SetRecorder(rec)
	src := rng.New(3)
	logical := f.LogicalPages()
	z := rng.NewZipf(src, int(logical), 0.9)
	now := sim.Time(0)
	for i := 0; i < 3*int(logical); i++ {
		done, err := f.Write(ftl.LPN(z.Next()), now, 0.5)
		if err != nil {
			t.Fatal(err)
		}
		now = done
		if i%1000 == 999 {
			f.Idle(now, now+50*sim.Millisecond)
			now += 50 * sim.Millisecond
		}
	}
	if err := rec.Close(); err != nil {
		t.Fatal(err)
	}
	st := f.Stats()
	if st.BackgroundGCs == 0 || st.ForegroundGCs == 0 {
		t.Fatalf("run reached no background or no foreground GC: %+v", st)
	}
	if got := counts[obs.KindBGCStart]; got != st.BackgroundGCs {
		t.Errorf("%d bgc_start events for %d background GCs", got, st.BackgroundGCs)
	}
	if got := counts[obs.KindBGCFinish]; got == 0 || got > st.BackgroundGCs {
		t.Errorf("%d bgc_finish events for %d background GCs", got, st.BackgroundGCs)
	}
	if got := counts[obs.KindGCCollect]; got < st.ForegroundGCs {
		t.Errorf("%d gc_foreground spans for %d foreground GCs", got, st.ForegroundGCs)
	}
}

// testWorkloadSoak drives the FTL with a realistic mixed request stream
// (reads, writes, trims, bursts, idle windows) from the Varmail generator —
// the closest thing to production traffic the suite exercises.
func testWorkloadSoak(t *testing.T, f ftl.FTL) {
	gen, err := workload.New(workload.Varmail(), f.LogicalPages(), 4000, 13)
	if err != nil {
		t.Fatal(err)
	}
	now := sim.Time(0)
	var lastArrival sim.Time
	for {
		req, ok := gen.Next()
		if !ok {
			break
		}
		if req.Arrival > lastArrival+5*sim.Millisecond && now < req.Arrival {
			f.Idle(now, req.Arrival)
			now = req.Arrival
		}
		lastArrival = req.Arrival
		if req.Arrival > now {
			now = req.Arrival
		}
		for p := 0; p < req.Pages; p++ {
			lpn := ftl.LPN((req.Page + int64(p)) % f.LogicalPages())
			var err error
			switch req.Op {
			case workload.OpWrite:
				now, err = f.Write(lpn, now, 0.5)
			case workload.OpTrim:
				now, err = f.Trim(lpn, now)
			default:
				if _, lookupErr := f.Read(lpn, now); lookupErr != nil {
					err = nil // unmapped reads are the runner's concern
				}
			}
			if err != nil {
				t.Fatalf("soak %v LPN %d: %v", req.Op, lpn, err)
			}
		}
	}
	st := f.Stats()
	if st.HostWrites == 0 || st.HostTrims == 0 {
		t.Errorf("soak exercised too little: %+v", st)
	}
	// Cross-check against the device as always.
	if dev := f.Device().Counts(); dev.Programs() != st.TotalPrograms() {
		t.Errorf("device programs %d != FTL programs %d", dev.Programs(), st.TotalPrograms())
	}
}

// testTrim covers the trim contract: no-op trims are harmless and uncounted,
// a real trim unmaps the LPN, and the FTL keeps working.
func testTrim(t *testing.T, fx Fixture) {
	f := fx.F
	now, err := f.Write(5, 0, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	// Trimming an unmapped LPN is a harmless no-op.
	if _, err := f.Trim(99, now); err != nil {
		t.Fatalf("trim of unmapped LPN errored: %v", err)
	}
	done, err := f.Trim(5, now)
	if err != nil {
		t.Fatal(err)
	}
	if done < now {
		t.Error("trim completed before issue")
	}
	if _, err := f.Read(5, done); err == nil {
		t.Error("trimmed LPN still readable")
	}
	st := f.Stats()
	if st.HostTrims != 1 {
		t.Errorf("trims = %d, want 1 (no-op trims uncounted)", st.HostTrims)
	}
	if fx.B.Map.Mapped() != 0 {
		t.Errorf("mapped = %d after trim", fx.B.Map.Mapped())
	}
	// The freed page becomes GC-visible as an invalid page.
	// (Write again to confirm the FTL still functions.)
	if _, err := f.Write(5, done, 0.5); err != nil {
		t.Fatalf("write after trim: %v", err)
	}
}

func testWriteReadBack(t *testing.T, f ftl.FTL) {
	now := sim.Time(0)
	const n = 64
	for lpn := ftl.LPN(0); lpn < n; lpn++ {
		done, err := f.Write(lpn, now, 0.5)
		if err != nil {
			t.Fatalf("write LPN %d: %v", lpn, err)
		}
		if done < now {
			t.Fatalf("write completed before issue: %v < %v", done, now)
		}
		now = done
	}
	for lpn := ftl.LPN(0); lpn < n; lpn++ {
		done, err := f.Read(lpn, now)
		if err != nil {
			t.Fatalf("read LPN %d: %v", lpn, err)
		}
		now = done
	}
	st := f.Stats()
	if st.HostWrites != n || st.HostReads != n {
		t.Errorf("stats = %+v, want %d writes and reads", st, n)
	}
}

func testMonotone(t *testing.T, f ftl.FTL) {
	prev := sim.Time(0)
	for lpn := ftl.LPN(0); lpn < 32; lpn++ {
		done, err := f.Write(lpn, prev, 0.5)
		if err != nil {
			t.Fatal(err)
		}
		if done <= prev {
			t.Fatalf("completion %v not after issue %v", done, prev)
		}
		prev = done
	}
}

// testOverwrite repeatedly rewrites one LPN and confirms the latest version
// stays readable and is the only page left mapped.
func testOverwrite(t *testing.T, fx Fixture) {
	f := fx.F
	now := sim.Time(0)
	const rounds = 50
	for i := 0; i < rounds; i++ {
		done, err := f.Write(7, now, 0.5)
		if err != nil {
			t.Fatal(err)
		}
		now = done
	}
	if _, err := f.Read(7, now); err != nil {
		t.Errorf("read after overwrites: %v", err)
	}
	if fx.B.Map.Mapped() != 1 {
		t.Errorf("mapped pages = %d after overwriting one LPN, want 1", fx.B.Map.Mapped())
	}
}

// testSustainedGC writes 3x the logical space with a skewed pattern; the FTL
// must keep servicing writes (GC reclaiming blocks) without error.
func testSustainedGC(t *testing.T, f ftl.FTL) {
	src := rng.New(42)
	logical := f.LogicalPages()
	z := rng.NewZipf(src, int(logical), 0.9)
	now := sim.Time(0)
	writes := 3 * int(logical)
	for i := 0; i < writes; i++ {
		lpn := ftl.LPN(z.Next())
		done, err := f.Write(lpn, now, 0.5)
		if err != nil {
			t.Fatalf("write %d (LPN %d): %v", i, lpn, err)
		}
		now = done
	}
	st := f.Stats()
	if st.Erases == 0 {
		t.Error("no erases after writing 3x logical capacity")
	}
	if st.GCCopies == 0 {
		t.Error("no GC copies despite skewed overwrites")
	}
	if wa := st.WriteAmplification(); wa < 1 {
		t.Errorf("write amplification %v < 1", wa)
	}
	// The device's own erase counter must agree with the FTL's.
	if dev := f.Device().Counts().Erases; dev != st.Erases {
		t.Errorf("device erases %d != FTL erases %d", dev, st.Erases)
	}
}

func testIdleReclaim(t *testing.T, fx Fixture) {
	src := rng.New(7)
	logical := fx.F.LogicalPages()
	z := rng.NewZipf(src, int(logical), 0.9)
	now := sim.Time(0)
	// Fill until free space drops below the background-GC threshold.
	for i := 0; i < 3*int(logical) && !fx.B.BelowGCThreshold(); i++ {
		done, err := fx.F.Write(ftl.LPN(z.Next()), now, 0.5)
		if err != nil {
			t.Fatal(err)
		}
		now = done
	}
	if !fx.B.BelowGCThreshold() {
		t.Skip("workload did not push free space below threshold on this geometry")
	}
	before := fx.B.TotalFreeBlocks()
	erasesBefore := fx.F.Stats().Erases
	fx.F.Idle(now, now+10*sim.Second)
	after := fx.B.TotalFreeBlocks()
	if fx.IdleConsumesFree {
		if fx.F.Stats().Erases <= erasesBefore {
			t.Errorf("idle made no erase progress: %d erases", fx.F.Stats().Erases)
		}
		return
	}
	if after <= before {
		t.Errorf("idle GC did not reclaim blocks: %d -> %d", before, after)
	}
	if fx.F.Stats().BackgroundGCs == 0 {
		t.Error("no background GC invocations recorded")
	}
}

func testDeterminism(t *testing.T, mk func() ftl.FTL) {
	run := func() ftl.Stats {
		f := mk()
		src := rng.New(99)
		logical := f.LogicalPages()
		now := sim.Time(0)
		for i := 0; i < int(logical); i++ {
			lpn := ftl.LPN(src.Int63n(logical))
			done, err := f.Write(lpn, now, src.Float64())
			if err != nil {
				t.Fatal(err)
			}
			now = done
			if i%1000 == 999 {
				f.Idle(now, now+100*sim.Millisecond)
			}
		}
		return f.Stats()
	}
	a, b := run(), run()
	if a != b {
		t.Errorf("same seed produced different stats:\n%+v\n%+v", a, b)
	}
}

func testReadUnmapped(t *testing.T, f ftl.FTL) {
	if _, err := f.Read(3, 0); err == nil {
		t.Error("read of never-written LPN succeeded")
	}
}

// testStatsConsistency exercises a random write mix and verifies the
// internal consistency of the Stats counters.
func testStatsConsistency(t *testing.T, f ftl.FTL) {
	src := rng.New(5)
	logical := f.LogicalPages()
	now := sim.Time(0)
	for i := 0; i < 2*int(logical); i++ {
		done, err := f.Write(ftl.LPN(src.Int63n(logical)), now, src.Float64())
		if err != nil {
			t.Fatal(err)
		}
		now = done
	}
	st := f.Stats()
	if st.HostWritesLSB+st.HostWritesMSB != st.HostWrites {
		t.Errorf("host write type split %d+%d != %d",
			st.HostWritesLSB, st.HostWritesMSB, st.HostWrites)
	}
	if st.GCCopiesLSB+st.GCCopiesMSB != st.GCCopies {
		t.Errorf("GC copy type split %d+%d != %d", st.GCCopiesLSB, st.GCCopiesMSB, st.GCCopies)
	}
	// Multi-stream placement classifies every host write as hot or cold;
	// single-stream schemes leave both counters at zero.
	if split := st.HostWritesHot + st.HostWritesCold; split > 0 && split != st.HostWrites {
		t.Errorf("host write temperature split %d+%d != %d",
			st.HostWritesHot, st.HostWritesCold, st.HostWrites)
	}
	// Device-level program counts must equal the FTL's accounting.
	dev := f.Device().Counts()
	if dev.Programs() != st.TotalPrograms() {
		t.Errorf("device programs %d != FTL programs %d", dev.Programs(), st.TotalPrograms())
	}
}
