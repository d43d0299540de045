// Epoch-sharded run engine: the SSD half. RunSharded batches host requests
// into virtual-time epochs, routes each page op to its target chip, and hands
// the batch to ftl.ShardRunner, which advances per-channel state on worker
// goroutines and merges cross-chip effects at the epoch barrier in
// deterministic global op order.
//
// The determinism contract is exactness, not mere stability: an epoch is
// only formed when its serial execution provably decomposes into independent
// per-channel executions plus a deterministic merge, so RunSharded(gen, N)
// equals Run(gen) for every N. The planner admits a request into the open
// epoch only if all of the following hold — anything else flushes the epoch
// and falls back to the exact serial step:
//
//	R1 (unique LPNs)    No two ops in an epoch touch the same LPN, so shard
//	                    reads against the pre-epoch mapping and deferred
//	                    mapper updates are exact.
//	R2 (arrival window) The epoch spans less than min(BusXfer+ProgLSB,
//	                    IdleThreshold) of virtual time: every in-epoch write
//	                    completes after every in-epoch arrival (buffer
//	                    releases can be deferred to the barrier), and no idle
//	                    window can open mid-epoch.
//	R4 (atomic admit)   The write buffer has room for the whole request, so
//	                    backpressure (which serializes on the pending heap)
//	                    cannot occur mid-epoch.
//	R5 (free margin)    Every written chip keeps enough free blocks that
//	                    foreground GC and block exhaustion are impossible
//	                    during the epoch (ftl.Kernel.ShardWriteHeadroom,
//	                    which models the order policy's exact pop/fill
//	                    behavior from the current cursor state; for
//	                    multi-stream placements the model assumes
//	                    adversarial stream routing, so the margin is an
//	                    upper bound rather than exact).
//	Rp (placement)      The sub-case of a failed R5 where the *best-case*
//	                    stream routing would still have had headroom
//	                    (ftl.Kernel.ShardPlacementHazard): the fallback is
//	                    an artifact of the planner's adversarial routing
//	                    assumption, not of true GC proximity. Counted
//	                    separately so placement-induced serialization is
//	                    visible in the report.
//	Rq (quota sign)     For the adaptive allocator, the frozen shard-time
//	                    quota provably yields the same LSB/MSB decisions as
//	                    the live serial quota (ftl.Kernel.ShardQuotaStable).
//
// Two widenings keep GC-heavy and trim-heavy workloads sharded:
//
//   - GC pre-runs: when R5 fails for a chip whose channel has no planned
//     device ops in the open epoch and no planned-but-unexecuted
//     invalidation touches the chip's full blocks, the planner runs the
//     serial foreground collection ahead of time on the real kernel
//     (ftl.Kernel.ShardPreRunGC) — provably the same collection, at the
//     same virtual time, the serial execution would perform at this write —
//     and rechecks the margin. GC-proximate writes then stay sharded.
//
//   - Sharded trims: trims are pure mapping mutations, so they ride the
//     epoch as device-free ops that the barrier replays on the real kernel
//     in global order, instead of breaking the epoch.
//
// Unknown ops still break the epoch. Runs with a recorder attached, a
// non-kernel host (nflex), a predictive kernel, or workers <= 1 take the
// serial path wholesale.
package ssd

import (
	"flexftl/internal/buffer"
	"flexftl/internal/ftl"
	"flexftl/internal/sim"
	"flexftl/internal/workload"
)

// FallbackCounts is the planner's fallback-cause taxonomy: how often each
// admission rule rejected a request (R1/R4/R5/Rq, counted per failed plan
// attempt, including attempts that succeeded after an epoch flush), how
// often a failed free-margin check was a placement-routing artifact rather
// than true GC proximity (Rp — disjoint from R5), how often the arrival
// window closed an epoch (R2), how many trim page ops still executed
// serially (Trim), and rejections outside the rule set — self-wrapping
// requests and unknown ops (Other).
type FallbackCounts struct {
	R1    int
	R2    int
	R4    int
	R5    int
	Rp    int
	Rq    int
	Trim  int
	Other int
}

// ShardReport is the planner-effectiveness report of the last RunSharded
// call. Ops are counted in request pages on both sides, so
// ShardedOps/(ShardedOps+SerialOps) is the sharded-op share. Deterministic
// for a given run, independent of the worker count.
type ShardReport struct {
	Epochs         int // epochs executed on the shard runner
	ShardedOps     int // page ops planned into epochs
	SerialOps      int // page ops that fell back to the exact serial step
	ShardedTrims   int // of ShardedOps: trim pages merged at the barrier
	GCPreRuns      int // foreground collections run ahead of plan time
	GCPreRunCopies int // valid-page relocations those collections performed
	Fallbacks      FallbackCounts
}

// ShardedShare returns ShardedOps/(ShardedOps+SerialOps), or 0 when the
// report is empty.
func (r ShardReport) ShardedShare() float64 {
	total := r.ShardedOps + r.SerialOps
	if total == 0 {
		return 0
	}
	return float64(r.ShardedOps) / float64(total)
}

// planCause is tryPlan's outcome: planOK or the admission rule that
// rejected the request.
type planCause int

const (
	planOK planCause = iota
	causeR1
	causeR4
	causeR5
	causeRp
	causeRq
	causeOther
)

// epochState is the open epoch under construction.
type epochState struct {
	k      *ftl.Kernel
	runner *ftl.ShardRunner
	window sim.Time

	ops     []ftl.EpochOp
	entries []*buffer.Entry // parallel to ops; nil for reads and trims
	reqs    []epochReq
	lpns    map[int64]struct{}
	start   sim.Time // arrival of the first planned request
	writes  int      // host page writes planned so far (round-robin offset)
	chipW   []int    // per-chip planned writes (R5 input)

	// GC pre-run eligibility tracking: planned device ops per channel, and
	// planned-but-unexecuted invalidations (write-old-PPN or trim target in
	// a currently-full block) per chip. A pre-run on a chip is exact only
	// when both are zero for it — the chip's channel timeline and full-block
	// valid counts then match what the serial execution would see.
	chanOps   []int
	pendInval []int

	// Per-request planning scratch, wiped after every write attempt.
	reqW     []int  // per-chip writes of the request being planned
	reqSeen  []bool // chips whose headroom this request already verified
	reqChan  []int  // request-local device ops per channel, before this page
	reqInval []int  // request-local invalidation hazards per chip
}

// epochReq records one planned request for the barrier's in-order accounting.
type epochReq struct {
	op             workload.Op
	pages          int
	arrival        sim.Time
	opStart, opEnd int
}

func (e *epochState) reset() {
	e.ops = e.ops[:0]
	e.entries = e.entries[:0]
	e.reqs = e.reqs[:0]
	clear(e.lpns)
	for i := range e.chipW {
		e.chipW[i] = 0
	}
	for i := range e.chanOps {
		e.chanOps[i] = 0
	}
	for i := range e.pendInval {
		e.pendInval[i] = 0
	}
	e.writes = 0
	e.start = 0
}

// resetReqScratch wipes the per-request planning scratch after a write
// attempt (successful or not).
func (e *epochState) resetReqScratch() {
	for i := range e.reqW {
		e.reqW[i] = 0
	}
	for i := range e.reqSeen {
		e.reqSeen[i] = false
	}
	for i := range e.reqChan {
		e.reqChan[i] = 0
	}
	for i := range e.reqInval {
		e.reqInval[i] = 0
	}
}

// noteInval records a planned-but-unexecuted invalidation of lpn's current
// physical page, if it lies in a full block (a GC pre-run blocker for that
// chip until the epoch flushes).
func (e *epochState) noteInval(lpn int64) {
	if chip, hazard := e.k.ShardInvalHazard(ftl.LPN(lpn)); hazard {
		e.pendInval[chip]++
	}
}

// RunSharded drives the generator like Run, but executes epochs of host ops
// in parallel across the device's channels on up to `workers` goroutines.
// Shards are channels, so results are independent of the worker count:
// RunSharded(gen, N) produces the same RunResult (and the same FTL/device
// state) as Run(gen) for every N. Configurations the sharded engine cannot
// prove exact — workers <= 1, a non-kernel host, a predictive kernel, or an
// attached recorder (whose probes sample mid-epoch state) — run serial.
//
// One documented divergence: page payload token sequence numbers come from
// disjoint per-shard ranges, so flash payload bytes differ from a serial
// run's. Tokens are only parsed by crash-recovery scans of serial runs;
// results, mapping hashes and op counts never observe them.
func (s *System) RunSharded(gen workload.Generator, workers int) (RunResult, error) {
	s.shardRep = ShardReport{}
	k, isKernel := s.F.(*ftl.Kernel)
	if workers <= 1 || !isKernel || !k.ShardSupported() || s.obs != nil {
		return s.Run(gen)
	}
	runner := ftl.NewShardRunner(k, workers)
	defer runner.Close()

	t := k.Device().Timing()
	window := t.BusXfer + t.ProgLSB
	if s.cfg.IdleThreshold < window {
		window = s.cfg.IdleThreshold
	}
	g := k.Device().Geometry()
	chips := g.Chips()
	e := &epochState{
		k:         k,
		runner:    runner,
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

	rs := s.newRunState()
	for {
		req, ok := gen.Next()
		if !ok {
			break
		}
		if err := s.shardStep(rs, e, req); err != nil {
			return RunResult{}, err
		}
	}
	if err := s.flushEpoch(rs, e); err != nil {
		return RunResult{}, err
	}
	return s.finishRun(rs, gen)
}

// ShardReport returns the planner effectiveness of the last RunSharded call.
func (s *System) ShardReport() ShardReport { return s.shardRep }

// countFallback attributes one failed plan attempt to its rule counter.
func (s *System) countFallback(cause planCause) {
	switch cause {
	case causeR1:
		s.shardRep.Fallbacks.R1++
	case causeR4:
		s.shardRep.Fallbacks.R4++
	case causeR5:
		s.shardRep.Fallbacks.R5++
	case causeRp:
		s.shardRep.Fallbacks.Rp++
	case causeRq:
		s.shardRep.Fallbacks.Rq++
	default:
		s.shardRep.Fallbacks.Other++
	}
}

// shardStep plans one request into the open epoch, flushing and retrying or
// falling back to the exact serial step when the epoch rules reject it.
func (s *System) shardStep(rs *runState, e *epochState, req workload.Request) error {
	arrival := rs.base + req.Arrival
	// R2: the epoch window closed — execute it before this request.
	if len(e.reqs) > 0 && arrival-e.start >= e.window {
		s.shardRep.Fallbacks.R2++
		if err := s.flushEpoch(rs, e); err != nil {
			return err
		}
	}
	// The prologue's idle check needs an exact busyUntil when it can fire.
	// With the epoch empty, busyUntil is exact (the flush recomputed it).
	// With the epoch open, tryPlan bumped busyUntil to at least the epoch's
	// first arrival, and R2 bounds this arrival within IdleThreshold of
	// that, so the check is provably false — matching the serial run, whose
	// busyUntil is at least as large.
	if err := s.prologue(rs, arrival); err != nil {
		return err
	}
	cause, err := s.tryPlan(rs, e, req, arrival)
	if err != nil {
		return err
	}
	if cause == planOK {
		if len(e.reqs) == 1 {
			e.start = arrival
		}
		return nil
	}
	s.countFallback(cause)
	if len(e.reqs) > 0 {
		// The open epoch blocked the request (LPN conflict, buffer room,
		// chip headroom, quota sign): execute it and retry once on the
		// empty epoch. No idle recheck is needed — this arrival is within
		// the window of the flushed epoch's start, so the gap to the now
		// exact busyUntil is below the idle threshold.
		if err := s.flushEpoch(rs, e); err != nil {
			return err
		}
		if err := s.releaseUpTo(arrival); err != nil {
			return err
		}
		cause, err = s.tryPlan(rs, e, req, arrival)
		if err != nil {
			return err
		}
		if cause == planOK {
			if len(e.reqs) == 1 {
				e.start = arrival
			}
			return nil
		}
		s.countFallback(cause)
	}
	// Unshardable even on an empty epoch (self-conflicting request, thin
	// buffer/chips/quota, pre-run-ineligible GC pressure): take the exact
	// serial path. tryPlan commits incrementally, so wipe any partial state.
	e.reset()
	s.shardRep.SerialOps += req.Pages
	if req.Op == workload.OpTrim {
		s.shardRep.Fallbacks.Trim += req.Pages
	}
	return s.stepOp(rs, req, arrival)
}

// tryPlan admits req into the open epoch if the epoch rules allow it,
// appending its page ops; it returns the rejecting rule otherwise. All rule
// checks happen before the first epoch mutation except LPN-set inserts on
// the failing path, which the caller wipes (the epoch is flushed or reset
// after any failure). A non-nil error is a device error from a GC pre-run
// and aborts the run, exactly as the serial collection it mirrors would.
func (s *System) tryPlan(rs *runState, e *epochState, req workload.Request, arrival sim.Time) (planCause, error) {
	// A request longer than the logical space wraps onto its own LPNs;
	// R1 cannot hold within the request itself.
	if int64(req.Pages) > rs.logical {
		return causeOther, nil
	}
	g := e.k.Device().Geometry()
	switch req.Op {
	case workload.OpRead:
		for p := 0; p < req.Pages; p++ {
			lpn := int64(rs.lpn(req.Page, p))
			if _, hit := e.lpns[lpn]; hit {
				return causeR1, nil
			}
		}
		opStart := len(e.ops)
		for p := 0; p < req.Pages; p++ {
			lpn := int64(rs.lpn(req.Page, p))
			e.lpns[lpn] = struct{}{}
			chip, mapped := e.k.LookupChip(ftl.LPN(lpn))
			if !mapped {
				continue // unmapped read: served from the zero map, no device op
			}
			e.ops = append(e.ops, ftl.EpochOp{LPN: ftl.LPN(lpn), Chip: chip, Arrival: arrival})
			e.entries = append(e.entries, nil)
			e.chanOps[g.ChannelOf(chip)]++
		}
		e.reqs = append(e.reqs, epochReq{op: req.Op, pages: req.Pages, arrival: arrival, opStart: opStart, opEnd: len(e.ops)})
		if arrival > rs.busyUntil {
			rs.busyUntil = arrival // lower bound; flush makes it exact
		}
		return planOK, nil

	case workload.OpWrite:
		if s.buf.Free() < req.Pages {
			return causeR4, nil
		}
		for p := 0; p < req.Pages; p++ {
			lpn := int64(rs.lpn(req.Page, p))
			if _, hit := e.lpns[lpn]; hit {
				return causeR1, nil
			}
		}
		// Rq over the round-robin routing this request would get.
		occupied := s.cfg.BufferPages - s.buf.Free()
		cause := planOK
		for j := 0; j < req.Pages; j++ {
			chip := e.k.PeekChip(e.writes + j)
			e.reqW[chip]++
			util := float64(occupied+j+1) / float64(s.cfg.BufferPages)
			if !e.k.ShardQuotaStable(util, e.writes+j) {
				cause = causeRq
				break
			}
		}
		// R5 with GC pre-runs (the Rq loop completed, so reqW is full).
		var err error
		if cause == planOK {
			cause, err = s.planWriteHeadroom(rs, e, req, arrival)
		}
		e.resetReqScratch()
		if err != nil || cause != planOK {
			return cause, err
		}
		opStart := len(e.ops)
		for p := 0; p < req.Pages; p++ {
			lpn := int64(rs.lpn(req.Page, p))
			e.lpns[lpn] = struct{}{}
			entry, admitErr := s.buf.TryAdmit(lpn, arrival)
			if admitErr != nil {
				// R4 guaranteed room; an admit failure is a planner bug.
				panic("ssd: epoch admit failed with free buffer space: " + admitErr.Error())
			}
			util := s.buf.Utilization()
			chip := e.k.PeekChip(e.writes)
			e.ops = append(e.ops, ftl.EpochOp{Write: true, LPN: ftl.LPN(lpn), Chip: chip, Arrival: arrival, Util: util})
			e.entries = append(e.entries, entry)
			e.chipW[chip]++
			e.chanOps[g.ChannelOf(chip)]++
			e.noteInval(lpn)
			e.writes++
		}
		e.reqs = append(e.reqs, epochReq{op: req.Op, pages: req.Pages, arrival: arrival, opStart: opStart, opEnd: len(e.ops)})
		if arrival > rs.busyUntil {
			rs.busyUntil = arrival // lower bound; flush makes it exact
		}
		return planOK, nil

	case workload.OpTrim:
		// Trims are pure mapping mutations: no device op, no buffer entry.
		// They ride the epoch under R1 so the barrier can replay their
		// invalidations on the real kernel in global order.
		for p := 0; p < req.Pages; p++ {
			lpn := int64(rs.lpn(req.Page, p))
			if _, hit := e.lpns[lpn]; hit {
				return causeR1, nil
			}
		}
		opStart := len(e.ops)
		for p := 0; p < req.Pages; p++ {
			lpn := int64(rs.lpn(req.Page, p))
			e.lpns[lpn] = struct{}{}
			e.noteInval(lpn)
			e.ops = append(e.ops, ftl.EpochOp{Trim: true, LPN: ftl.LPN(lpn), Arrival: arrival, Done: arrival})
			e.entries = append(e.entries, nil)
		}
		e.reqs = append(e.reqs, epochReq{op: req.Op, pages: req.Pages, arrival: arrival, opStart: opStart, opEnd: len(e.ops)})
		if arrival > rs.busyUntil {
			rs.busyUntil = arrival // lower bound; flush makes it exact
		}
		return planOK, nil

	default:
		return causeOther, nil
	}
}

// planWriteHeadroom runs R5 over the request's round-robin fan-out in page
// order, attempting a GC pre-run at each chip's first touch when the margin
// fails. A pre-run is exact — byte-identical to the collection the serial
// execution would perform inline at this very write — iff the chip's
// channel carries no planned device ops (neither from the open epoch nor
// from earlier pages of this request; cross-channel ops commute on the
// device) and no planned-but-unexecuted invalidation touches the chip's
// full blocks (victim picks then see serial-exact valid counts). Foreground
// collections never move the adaptive quota, so Rq decisions are unaffected.
func (s *System) planWriteHeadroom(rs *runState, e *epochState, req workload.Request, arrival sim.Time) (planCause, error) {
	g := e.k.Device().Geometry()
	for j := 0; j < req.Pages; j++ {
		chip := e.k.PeekChip(e.writes + j)
		ch := g.ChannelOf(chip)
		if !e.reqSeen[chip] {
			e.reqSeen[chip] = true
			w := e.chipW[chip] + e.reqW[chip]
			if !e.k.ShardWriteHeadroom(chip, w) {
				ok := false
				if e.chanOps[ch]+e.reqChan[ch] == 0 && e.pendInval[chip]+e.reqInval[chip] == 0 {
					gcs, copies, err := e.k.ShardPreRunGC(chip, arrival)
					if err != nil {
						return planOK, err
					}
					s.shardRep.GCPreRuns += gcs
					s.shardRep.GCPreRunCopies += copies
					ok = e.k.ShardWriteHeadroom(chip, w)
				}
				if !ok {
					if e.k.ShardPlacementHazard(chip, w) {
						return causeRp, nil
					}
					return causeR5, nil
				}
			}
		}
		e.reqChan[ch]++
		lpn := int64(rs.lpn(req.Page, j))
		if hc, hazard := e.k.ShardInvalHazard(ftl.LPN(lpn)); hazard {
			e.reqInval[hc]++
		}
	}
	return planOK, nil
}

// flushEpoch executes the open epoch across the shards and performs the
// barrier's in-order host-side accounting: request completions, pending-heap
// pushes (which release buffer entries on later arrivals), metrics and
// latency records, and the exact busyUntil.
func (s *System) flushEpoch(rs *runState, e *epochState) error {
	if len(e.reqs) == 0 {
		e.reset()
		return nil
	}
	if len(e.ops) > 0 {
		if err := e.runner.ExecEpoch(e.ops); err != nil {
			return err
		}
		s.shardRep.Epochs++
	}
	for _, r := range e.reqs {
		s.shardRep.ShardedOps += r.pages
		switch r.op {
		case workload.OpRead:
			completion := r.arrival
			for i := r.opStart; i < r.opEnd; i++ {
				if e.ops[i].Done > completion {
					completion = e.ops[i].Done
				}
			}
			rs.col.RecordRead(r.pages, r.arrival, completion)
			if completion > rs.busyUntil {
				rs.busyUntil = completion
			}
		case workload.OpWrite:
			flushed := r.arrival
			for i := r.opStart; i < r.opEnd; i++ {
				s.track(e.ops[i].Done, e.entries[i])
				if e.ops[i].Done > flushed {
					flushed = e.ops[i].Done
				}
			}
			// R4 ruled out backpressure, so admission == arrival and no
			// buffer-full blame accrues — exactly the serial accounting.
			rs.col.RecordWrite(r.pages, r.arrival, r.arrival, flushed)
			if flushed > rs.busyUntil {
				rs.busyUntil = flushed
			}
		case workload.OpTrim:
			// Trim ops complete at arrival (metadata only, max-completion
			// semantics) — the barrier already replayed their invalidations.
			s.shardRep.ShardedTrims += r.pages
			completion := r.arrival
			for i := r.opStart; i < r.opEnd; i++ {
				if e.ops[i].Done > completion {
					completion = e.ops[i].Done
				}
			}
			rs.col.RecordTrim(r.pages, r.arrival, completion)
			if completion > rs.busyUntil {
				rs.busyUntil = completion
			}
		}
	}
	e.reset()
	return nil
}
