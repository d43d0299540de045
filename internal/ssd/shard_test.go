// Table tests for the epoch planner's fallback-cause taxonomy: each
// admission rule is driven to rejection in isolation — duplicate LPN (R1),
// a closed arrival window (R2), missing buffer room (R4), a failing free
// margin on a pre-run-ineligible chip (R5), the same margin failure caused
// only by adversarial placement-stream routing (Rp), an unstable adaptive
// quota (Rq), and a self-wrapping request (Other, with serial trim pages
// attributed to the Trim counter). R1/R2/R4/Other run end-to-end through
// RunSharded and assert the report counters; R5/Rp/Rq need doctored kernel
// state, so they drive tryPlan directly and assert the returned cause.
package ssd

import (
	"testing"

	"flexftl/internal/core"
	"flexftl/internal/ftl"
	"flexftl/internal/nand"
	"flexftl/internal/sim"
	"flexftl/internal/workload"
)

// newShardPlannerSystem builds a prefilled flexFTL system on the test
// geometry under the given host config.
func newShardPlannerSystem(t *testing.T, cfg Config) *System {
	t.Helper()
	dev, err := nand.NewDevice(nand.Config{
		Geometry: nand.TestGeometry(),
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
	sys, err := New(f, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sys.Prefill(); err != nil {
		t.Fatal(err)
	}
	return sys
}

// newEpochForTest builds an empty open epoch exactly as RunSharded would,
// minus the shard runner (tryPlan never executes, so none is needed).
func newEpochForTest(sys *System) *epochState {
	k := sys.F.(*ftl.Kernel)
	tm := k.Device().Timing()
	window := tm.BusXfer + tm.ProgLSB
	if sys.cfg.IdleThreshold < window {
		window = sys.cfg.IdleThreshold
	}
	g := k.Device().Geometry()
	chips := g.Chips()
	return &epochState{
		k:         k,
		window:    window,
		lpns:      make(map[int64]struct{}),
		chipW:     make([]int, chips),
		chanOps:   make([]int, g.Channels),
		pendInval: make([]int, chips),
		reqW:      make([]int, chips),
		reqSeen:   make([]bool, chips),
		reqChan:   make([]int, g.Channels),
		reqInval:  make([]int, chips),
	}
}

func TestShardFallbackTaxonomy(t *testing.T) {
	t.Run("R1_duplicate_lpn", func(t *testing.T) {
		// Two reads of the same LPN inside one window: the second is
		// rejected from the open epoch (R1), then admitted after the flush —
		// no page falls back serial.
		sys := newShardPlannerSystem(t, DefaultConfig())
		gen := &sliceGen{reqs: []workload.Request{
			{Op: workload.OpRead, Page: 0, Pages: 1},
			{Op: workload.OpRead, Page: 0, Pages: 1, Arrival: 10 * sim.Microsecond},
		}}
		if _, err := sys.RunSharded(gen, 2); err != nil {
			t.Fatal(err)
		}
		rep := sys.ShardReport()
		if rep.Fallbacks.R1 != 1 || rep.SerialOps != 0 || rep.ShardedOps != 2 {
			t.Errorf("want R1=1 serial=0 sharded=2, got %+v", rep)
		}
	})

	t.Run("R2_window_close", func(t *testing.T) {
		// Two reads of distinct LPNs spaced past the epoch window: the
		// second closes the first epoch (R2) and opens its own.
		sys := newShardPlannerSystem(t, DefaultConfig())
		gen := &sliceGen{reqs: []workload.Request{
			{Op: workload.OpRead, Page: 0, Pages: 1},
			{Op: workload.OpRead, Page: 1, Pages: 1, Arrival: 700 * sim.Microsecond},
		}}
		if _, err := sys.RunSharded(gen, 2); err != nil {
			t.Fatal(err)
		}
		rep := sys.ShardReport()
		if rep.Fallbacks.R2 != 1 || rep.SerialOps != 0 || rep.ShardedOps != 2 {
			t.Errorf("want R2=1 serial=0 sharded=2, got %+v", rep)
		}
	})

	t.Run("R4_buffer_room", func(t *testing.T) {
		// A 3-page write against a 2-page buffer can never be admitted
		// atomically: R4 rejects it even on an empty epoch and all three
		// pages execute serially (where backpressure stalls are legal).
		cfg := DefaultConfig()
		cfg.BufferPages = 2
		sys := newShardPlannerSystem(t, cfg)
		gen := &sliceGen{reqs: []workload.Request{
			{Op: workload.OpWrite, Page: 0, Pages: 3},
		}}
		if _, err := sys.RunSharded(gen, 2); err != nil {
			t.Fatal(err)
		}
		rep := sys.ShardReport()
		if rep.Fallbacks.R4 != 1 || rep.SerialOps != 3 || rep.ShardedOps != 0 {
			t.Errorf("want R4=1 serial=3 sharded=0, got %+v", rep)
		}
	})

	t.Run("R5_margin_prerun_ineligible", func(t *testing.T) {
		// A planned read occupies the write chip's channel, then the chip's
		// free pool is drained below the GC trigger: the margin fails and
		// the dirty channel rules out a GC pre-run, so the cause is R5.
		sys := newShardPlannerSystem(t, DefaultConfig())
		k := sys.F.(*ftl.Kernel)
		g := k.Device().Geometry()
		e := newEpochForTest(sys)
		rs := sys.newRunState()

		chip0 := k.PeekChip(0)
		ch0 := g.ChannelOf(chip0)
		readLPN := int64(-1)
		for lpn := int64(0); lpn < rs.logical; lpn++ {
			if c, ok := k.LookupChip(ftl.LPN(lpn)); ok && g.ChannelOf(c) == ch0 {
				readLPN = lpn
				break
			}
		}
		if readLPN < 0 {
			t.Fatalf("no prefilled LPN maps to channel %d", ch0)
		}
		cause, err := sys.tryPlan(rs, e, workload.Request{Op: workload.OpRead, Page: readLPN, Pages: 1}, rs.base)
		if err != nil || cause != planOK {
			t.Fatalf("planning the channel-occupying read: cause=%v err=%v", cause, err)
		}
		pool := k.Pools[chip0]
		for pool.FreeCount() > 0 {
			pool.PopFree()
		}
		writeLPN := (readLPN + 1) % rs.logical
		cause, err = sys.tryPlan(rs, e, workload.Request{Op: workload.OpWrite, Page: writeLPN, Pages: 1}, rs.base)
		if err != nil {
			t.Fatal(err)
		}
		if cause != causeR5 {
			t.Errorf("want causeR5, got %v", cause)
		}
		if rep := sys.ShardReport(); rep.GCPreRuns != 0 {
			t.Errorf("pre-run fired on a dirty channel: %+v", rep)
		}
	})

	t.Run("Rp_placement_hazard", func(t *testing.T) {
		// The R5 doctoring on a hot/cold kernel straight out of prefill:
		// every prefill write is a first touch, so the hot stream has no
		// active fast block yet. Worst-case routing (the write goes hot)
		// pops a free block immediately while best-case routing rides the
		// cold stream's slack, so at the boundary free count the margin
		// failure is a placement artifact — the cause is Rp, not R5.
		h, err := ftl.Build("flexFTL-hotcold", ftl.BuildEnv{
			Geometry: nand.TestGeometry(),
			Config:   ftl.DefaultConfig(),
			Flex:     ftl.DefaultFlexParams(),
		})
		if err != nil {
			t.Fatal(err)
		}
		sys, err := New(h.(ftl.FTL), DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		if _, err := sys.Prefill(); err != nil {
			t.Fatal(err)
		}
		k := sys.F.(*ftl.Kernel)
		g := k.Device().Geometry()
		e := newEpochForTest(sys)
		rs := sys.newRunState()

		chip0 := k.PeekChip(0)
		ch0 := g.ChannelOf(chip0)
		readLPN := int64(-1)
		for lpn := int64(0); lpn < rs.logical; lpn++ {
			if c, ok := k.LookupChip(ftl.LPN(lpn)); ok && g.ChannelOf(c) == ch0 {
				readLPN = lpn
				break
			}
		}
		if readLPN < 0 {
			t.Fatalf("no prefilled LPN maps to channel %d", ch0)
		}
		cause, err := sys.tryPlan(rs, e, workload.Request{Op: workload.OpRead, Page: readLPN, Pages: 1}, rs.base)
		if err != nil || cause != planOK {
			t.Fatalf("planning the channel-occupying read: cause=%v err=%v", cause, err)
		}
		pool := k.Pools[chip0]
		for pool.FreeCount() > 0 && k.ShardWriteHeadroom(chip0, 1) {
			pool.PopFree()
		}
		if k.ShardWriteHeadroom(chip0, 1) {
			t.Fatal("draining the free pool never failed the margin")
		}
		if !k.ShardPlacementHazard(chip0, 1) {
			t.Fatal("margin failure is not a placement hazard; the hot stream unexpectedly holds an active block")
		}
		writeLPN := (readLPN + 1) % rs.logical
		cause, err = sys.tryPlan(rs, e, workload.Request{Op: workload.OpWrite, Page: writeLPN, Pages: 1}, rs.base)
		if err != nil {
			t.Fatal(err)
		}
		if cause != causeRp {
			t.Errorf("want causeRp, got %v", cause)
		}
		if rep := sys.ShardReport(); rep.GCPreRuns != 0 {
			t.Errorf("pre-run fired on a dirty channel: %+v", rep)
		}
	})

	t.Run("Rq_quota_flip", func(t *testing.T) {
		// The buffer sits at full utilization (the high band consults the
		// adaptive quota q) and the epoch already holds more planned writes
		// than |q|: the frozen quota cannot be proven sign-stable, so the
		// cause is Rq.
		cfg := DefaultConfig()
		cfg.BufferPages = 4
		sys := newShardPlannerSystem(t, cfg)
		k := sys.F.(*ftl.Kernel)
		e := newEpochForTest(sys)
		rs := sys.newRunState()

		for i := int64(0); i < 3; i++ {
			if _, err := sys.buf.TryAdmit(1000+i, rs.base); err != nil {
				t.Fatal(err)
			}
		}
		w := int(k.Quota())
		if w < 0 {
			w = -w
		}
		e.writes = w + 1
		cause, err := sys.tryPlan(rs, e, workload.Request{Op: workload.OpWrite, Page: 0, Pages: 1}, rs.base)
		if err != nil {
			t.Fatal(err)
		}
		if cause != causeRq {
			t.Errorf("want causeRq, got %v", cause)
		}
	})

	t.Run("Other_self_wrapping_trim", func(t *testing.T) {
		// A trim longer than the logical space wraps onto its own LPNs:
		// outside the rule set (Other), its pages execute serially and are
		// attributed to the Trim counter.
		sys := newShardPlannerSystem(t, DefaultConfig())
		pages := int(sys.F.LogicalPages()) + 1
		gen := &sliceGen{reqs: []workload.Request{
			{Op: workload.OpTrim, Page: 0, Pages: pages},
		}}
		if _, err := sys.RunSharded(gen, 2); err != nil {
			t.Fatal(err)
		}
		rep := sys.ShardReport()
		if rep.Fallbacks.Other != 1 || rep.Fallbacks.Trim != pages || rep.SerialOps != pages {
			t.Errorf("want Other=1 Trim=%d serial=%d, got %+v", pages, pages, rep)
		}
	})
}
