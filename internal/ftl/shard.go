package ftl

import (
	"errors"
	"fmt"
	"sync"

	"flexftl/internal/core"
	"flexftl/internal/nand"
	"flexftl/internal/rel"
	"flexftl/internal/sim"
)

// This file is the FTL half of the epoch-sharded run engine (the SSD half —
// epoch formation — lives in internal/ssd). One simulated SSD executes in
// parallel by batching host page operations into virtual-time epochs, routing
// each to its target chip, advancing per-channel state on worker goroutines,
// and merging the cross-chip effects (mapper updates, quota, stats, the
// round-robin cursor) at the epoch barrier in deterministic global op order.
//
// Shards are CHANNELS, not workers: a channel owns its bus timeline
// (Device.chanFree) and its chips own everything else chip-indexed (block
// arrays, pools, placement cursors, backup rings, attribution registers), so
// two channel shards touch disjoint state. The shard count therefore depends
// only on the geometry, so results are identical at any worker count. The
// goroutine that plans an epoch runs its first busy shard itself; a pool of
// min(workers, channels) - 1 goroutines takes the others by shard index, so
// an epoch that touches one channel never leaves the planner's goroutine,
// and dispatching an epoch allocates nothing.
//
// Exactness is the planner's job (internal/ssd): it only admits an op into an
// epoch when the serial execution provably cannot couple it to another
// shard's state — unique LPNs per epoch, an arrival window shorter than the
// fastest program, request-atomic buffer admission, a per-chip free-block
// margin ruling out foreground GC, and quota-sign stability for the adaptive
// allocator. Anything else flushes the epoch and takes the exact serial path.
//
// One deliberate divergence: payload token sequence numbers. Shards stamp
// tokens from disjoint per-epoch ranges (base + shardIdx<<32), so the bytes
// programmed into page payloads differ from a serial run's. Tokens are only
// parsed by crash-recovery flash scans, which operate on serial runs; run
// results, mapping hashes, free-block and device op counts never see them.

// EpochOp is one page-granular host operation routed to a chip. The planner
// appends ops in serial (global) order; Done and Err are filled in by the
// shard worker that executes the op. Trim ops carry no device work at all —
// they ride the epoch purely so their mapper invalidation replays at the
// barrier in global order (Chip is unused for them).
type EpochOp struct {
	Write   bool
	Trim    bool
	LPN     LPN
	Chip    int
	Arrival sim.Time
	Util    float64 // write-buffer utilization at admission (writes only)
	Done    sim.Time
	Err     error
}

// ShardSupported reports whether this kernel can run under the epoch-sharded
// engine. The EWMA write predictor observes every host write globally, which
// would couple shards, so predictive kernels run serial.
func (k *Kernel) ShardSupported() bool { return k.pred == nil }

// PeekChip previews the chip the i-th future host write will route to,
// without advancing the round-robin cursor (the planner routes writes; the
// barrier advances the cursor).
func (k *Kernel) PeekChip(i int) int {
	return (k.rr + i) % k.Dev.Geometry().Chips()
}

// LookupChip returns the chip currently holding lpn (ok false if unmapped).
// Reads route to the chip of their mapped physical page.
func (k *Kernel) LookupChip(lpn LPN) (int, bool) {
	ppn, ok := k.Map.Lookup(lpn)
	if !ok {
		return 0, false
	}
	return k.lay.ChipOf(ppn), true
}

// ShardWriteHeadroom reports whether the chip can absorb w epoch writes with
// no possibility of foreground GC, slot-refill exhaustion or backup-ring
// starvation. The order policy bounds the free-block pops and fast-block
// completions w writes can cause from the chip's current cursor state, the
// backup strategy adds its own pops, and the check requires the pool to stay
// at or above the budget's Quiet level throughout — so the serial execution
// of the same writes provably never collects mid-epoch. A false negative
// only costs a serial fallback (or, first, a GC pre-run), never correctness.
func (k *Kernel) ShardWriteHeadroom(chip, w int) bool {
	pops, fills := k.ord.shardWriteImpact(k, chip, w)
	pops += k.bk.shardPops(k, chip, w, fills)
	return k.Pools[chip].FreeCount()-pops >= k.Budget.Quiet
}

// ShardPlacementHazard reports whether a failed ShardWriteHeadroom check is a
// placement artifact: under the *best-case* routing of the w writes across
// placement streams the chip would have had headroom, so the failure stems
// from the planner having to assume adversarial stream routing — not from
// true GC proximity. The planner counts these separately (Rp) in the
// fallback taxonomy; single-stream placements have no routing freedom and
// never report a placement hazard.
func (k *Kernel) ShardPlacementHazard(chip, w int) bool {
	if k.streams <= 1 {
		return false
	}
	pops, fills := k.ord.shardWriteImpactMin(k, chip, w)
	pops += k.bk.shardPops(k, chip, w, fills)
	return k.Pools[chip].FreeCount()-pops >= k.Budget.Quiet
}

// ShardPreRunGC runs the chip's foreground collection loop ahead of time, at
// plan time on the real kernel, exactly as the serial execution's next write
// on the chip would. The planner only calls it when the open epoch has no
// device ops on the chip's channel and no planned-but-unexecuted
// invalidations touching the chip's full blocks, which makes the pre-run
// byte-identical to the serial run's in-line collection: victim picks see
// the same valid counts, relocations land on the same pages at the same
// virtual times, and the quota is untouched (foreground relocations never
// move q). It returns the collection and copy counts for ShardReport.
func (k *Kernel) ShardPreRunGC(chip int, now sim.Time) (collections, copies int, err error) {
	g0, c0 := k.St.ForegroundGCs, k.St.GCCopies
	if _, err = k.ord.foregroundGC(k, chip, now); err != nil {
		return 0, 0, err
	}
	return int(k.St.ForegroundGCs - g0), int(k.St.GCCopies - c0), nil
}

// ShardInvalHazard reports the chip whose full (GC-candidate) block holds
// lpn's current physical page, if any. A planned-but-unexecuted write or
// trim of such an LPN will invalidate that page at the barrier; until then a
// GC pre-run on that chip would see a stale valid count and diverge from
// serial execution, so the planner counts these as pre-run blockers.
func (k *Kernel) ShardInvalHazard(lpn LPN) (int, bool) {
	ppn, ok := k.Map.Lookup(lpn)
	if !ok {
		return 0, false
	}
	flat := k.lay.FlatBlock(ppn)
	if !k.full[flat] {
		return 0, false
	}
	return k.lay.BlockOfFlat(flat).Chip, true
}

// ShardQuotaStable reports whether the adaptive allocator's LSB-quota sign
// cannot have changed by the time this write executes, given w prior writes
// already planned into the epoch. The frozen shard-time quota then yields the
// same placement decision as the live serial quota; the barrier replays the
// exact quota arithmetic afterwards. Non-adaptive allocators never read q.
func (k *Kernel) ShardQuotaStable(util float64, w int) bool {
	a, ok := k.alloc.(*adaptiveAlloc)
	if !ok {
		return true
	}
	if util <= a.p.UHigh {
		// The mid and low utilization bands never consult q.
		return true
	}
	return a.q > int64(w) || a.q+int64(w) <= 0
}

// writeOn is Kernel.Write with the chip decided by the caller: the epoch
// planner routes round-robin positions itself so shard execution never
// touches the shared cursor. It must mirror Write exactly, minus NextChip.
func (k *Kernel) writeOn(chip int, lpn LPN, now sim.Time, util float64) (sim.Time, error) {
	// Classify at arrival, before foreground GC can advance the clock: a
	// write the planner admits after a GC pre-run executes on its shard at
	// the arrival time, while the serial path would reach classification
	// only after the in-line collection — the heat decay must see the same
	// virtual time on both paths.
	stream := k.placement.classify(k, lpn, now, false)
	var err error
	gcStart := now
	now, err = k.ord.foregroundGC(k, chip, now)
	if err != nil {
		return now, err
	}
	if now > gcStart {
		k.ctrBlameGC.Add(int64(now - gcStart))
	}
	pref := k.alloc.chooseHost(k, chip, util, now)
	done, err := k.ord.program(k, chip, stream, pref, lpn, k.Token(lpn), k.Spare(lpn), now, false)
	if err != nil {
		return now, err
	}
	k.St.HostWrites++
	if k.streams > 1 {
		// Stream-split accounting only where placement actually separates
		// streams, so single-stream schemes keep byte-identical stats.
		if stream == streamHot {
			k.St.HostWritesHot++
		} else {
			k.St.HostWritesCold++
		}
	}
	if k.pred != nil {
		k.pred.ObserveWrite()
	}
	return done, nil
}

// newShardClone builds the per-channel kernel a shard worker drives: a
// shallow Kernel copy over a cloned Base whose mapper is a deferred-update
// log view, whose stats accumulate separately for the barrier sum, and whose
// observability is off (the runner falls back to serial whenever a recorder
// is attached). Policy objects (placement, backup, allocation) are shared —
// their state is chip-indexed, and the shardExec latch freezes the one global
// piece (the adaptive quota) until the barrier replays it.
func (k *Kernel) newShardClone() *Kernel {
	b := *k.Base
	b.Map = k.Base.Map.logView()
	b.St = Stats{}
	b.Obs = nil
	b.ctrBlameGC, b.ctrBlameBackup, b.ctrBlameReprogram = nil, nil, nil
	b.Buf = nand.PageBuf{}
	b.ppns = nil
	b.shardExec = true
	clone := *k
	clone.Base = &b
	clone.pred = nil
	return &clone
}

// add accumulates o into s — the barrier's deterministic channel-order stats
// merge. Field-by-field so a new Stats counter fails loudly in review rather
// than silently summing wrong.
func (s *Stats) add(o *Stats) {
	s.HostReads += o.HostReads
	s.HostWrites += o.HostWrites
	s.HostTrims += o.HostTrims
	s.HostWritesLSB += o.HostWritesLSB
	s.HostWritesMSB += o.HostWritesMSB
	s.GCCopies += o.GCCopies
	s.GCCopiesLSB += o.GCCopiesLSB
	s.GCCopiesMSB += o.GCCopiesMSB
	s.BackupWrites += o.BackupWrites
	s.PadWrites += o.PadWrites
	s.Erases += o.Erases
	s.RetiredBlocks += o.RetiredBlocks
	s.ForegroundGCs += o.ForegroundGCs
	s.BackgroundGCs += o.BackgroundGCs
	s.HostWritesHot += o.HostWritesHot
	s.HostWritesCold += o.HostWritesCold
	s.UncorrectableReads += o.UncorrectableReads
	s.ECCRebuilds += o.ECCRebuilds
	s.ScrubReads += o.ScrubReads
	s.RefreshCopies += o.RefreshCopies
	s.RefreshedBlocks += o.RefreshedBlocks
	s.GCReadLosses += o.GCReadLosses
}

// ShardRunner owns the per-channel kernel clones and the goroutines that
// execute one SSD's epochs. It is created once per run (after prefill) and
// closed when the run finishes. Dispatch allocates nothing: the epoch's ops
// live in one field, pool goroutines receive bare shard indices, and one
// WaitGroup owned by the runner joins them.
type ShardRunner struct {
	k       *Kernel
	shards  []*Kernel // one clone per channel
	work    chan int  // shard indices for the pool goroutines
	pool    int       // pool goroutines: every executing goroutine but the caller
	wg      sync.WaitGroup
	exited  sync.WaitGroup // pool goroutine lifetimes, joined by Close
	ops     []EpochOp      // the epoch being executed
	byShard [][]int        // scratch: epoch op indices per shard
	cursors []int          // scratch: per-shard map-log replay cursor
}

// NewShardRunner builds the per-channel shard clones of k and starts
// min(workers, channels) - 1 pool goroutines: ExecEpoch's caller executes a
// shard itself, so workers counts every goroutine that runs shards. workers
// below 1 counts as 1 (no pool; the caller runs every shard); callers wanting
// serial execution should not construct a runner at all.
func NewShardRunner(k *Kernel, workers int) *ShardRunner {
	ch := k.Dev.Geometry().Channels
	r := &ShardRunner{
		k:       k,
		shards:  make([]*Kernel, ch),
		work:    make(chan int, ch),
		byShard: make([][]int, ch),
		cursors: make([]int, ch),
		pool:    max(min(workers, ch), 1) - 1,
	}
	for i := range r.shards {
		r.shards[i] = k.newShardClone()
	}
	r.exited.Add(r.pool)
	for i := 0; i < r.pool; i++ {
		go func() {
			defer r.exited.Done()
			for si := range r.work {
				r.runShard(si)
				r.wg.Done()
			}
		}()
	}
	return r
}

// Close stops the pool goroutines and waits for them to exit. The runner
// must not be used afterwards.
func (r *ShardRunner) Close() {
	close(r.work)
	r.exited.Wait()
}

// runShard executes shard si's ops of the current epoch in global order.
func (r *ShardRunner) runShard(si int) {
	sk := r.shards[si]
	for _, i := range r.byShard[si] {
		op := &r.ops[i]
		if op.Write {
			op.Done, op.Err = sk.writeOn(op.Chip, op.LPN, op.Arrival, op.Util)
		} else {
			op.Done, op.Err = sk.ReadLPN(op.LPN, op.Arrival)
		}
		if op.Err != nil {
			if !op.Write && errors.Is(op.Err, rel.ErrUncorrectable) {
				// A detected data loss is a completed read, not an abort:
				// the host folds Done into the request's completion and the
				// run carries on — exactly the serial engine's
				// continue-on-uncorrectable.
				continue
			}
			// Serial execution aborts the run at its first error; halting
			// the shard keeps its state from running ahead.
			return
		}
	}
}

// ExecEpoch executes one epoch: ops (in serial order) fan out to their
// channel shards, run concurrently, and merge back in global op order. The
// calling goroutine runs the first busy shard itself and hands only the rest
// to the pool, so an epoch that touches one channel costs no handoff. On
// return with nil error, the real kernel's mapper, stats, quota, sequence
// and round-robin cursor are exactly what a serial execution of the same ops
// would have produced, and every op carries its Done time. A non-nil error
// is the first error in serial order; the run is then aborted, so no merge
// is attempted.
func (r *ShardRunner) ExecEpoch(ops []EpochOp) error {
	g := r.k.Dev.Geometry()
	for i := range r.byShard {
		r.byShard[i] = r.byShard[i][:0]
	}
	writes := 0
	for i := range ops {
		if ops[i].Trim {
			// Trims carry no device work; they replay at the barrier only.
			continue
		}
		si := g.ChannelOf(ops[i].Chip)
		r.byShard[si] = append(r.byShard[si], i)
		if ops[i].Write {
			writes++
		}
	}

	// Disjoint per-shard token sequence ranges for this epoch; the barrier
	// re-compacts the real cursor below.
	for si, sk := range r.shards {
		sk.seq = r.k.seq + int64(si+1)<<32
		sk.Map.resetLog()
	}

	r.ops = ops
	first := -1
	for si := range r.shards {
		switch {
		case len(r.byShard[si]) == 0:
		case first < 0:
			first = si
		case r.pool == 0:
			r.runShard(si)
		default:
			r.wg.Add(1)
			r.work <- si
		}
	}
	if first >= 0 {
		r.runShard(first)
	}
	r.wg.Wait()

	// A shard executes its ops in global order, so its first error is its
	// earliest; scanning all ops in global order yields the error a serial
	// run would have hit first. Uncorrectable reads are completed ops (the
	// loss is the result), not aborts.
	for i := range ops {
		if ops[i].Err != nil && !(!ops[i].Write && errors.Is(ops[i].Err, rel.ErrUncorrectable)) {
			return ops[i].Err
		}
	}

	// Barrier merge, in global op order: replay the deferred mapper updates
	// (firing the valid-count hooks that re-bucket the GC victim index) and
	// the frozen quota arithmetic.
	for i := range r.cursors {
		r.cursors[i] = 0
	}
	for i := range ops {
		op := &ops[i]
		if op.Trim {
			// Replay the trim's mapper invalidation (and HostTrims count) on
			// the real kernel at its global-order position — exactly where
			// the serial run would have performed it.
			if op.Done, op.Err = r.k.Trim(op.LPN, op.Arrival); op.Err != nil {
				return op.Err
			}
			continue
		}
		if !op.Write {
			continue
		}
		si := g.ChannelOf(op.Chip)
		sk := r.shards[si]
		if r.cursors[si] >= len(sk.Map.log) {
			panic(fmt.Sprintf("ftl: shard %d map log underflow at op %d", si, i))
		}
		ent := sk.Map.log[r.cursors[si]]
		r.cursors[si]++
		if ent.lpn != op.LPN {
			panic(fmt.Sprintf("ftl: shard %d map log LPN %d != op LPN %d", si, ent.lpn, op.LPN))
		}
		r.k.Map.Update(ent.lpn, ent.ppn)
		isLSB := r.k.lay.Addr(ent.ppn).Page.Type == core.LSB
		r.k.alloc.onProgram(r.k, isLSB, false)
	}
	for si, sk := range r.shards {
		if r.cursors[si] != len(sk.Map.log) {
			panic(fmt.Sprintf("ftl: shard %d map log has %d unconsumed entries", si, len(sk.Map.log)-r.cursors[si]))
		}
	}
	for _, sk := range r.shards {
		r.k.St.add(&sk.St)
		sk.St = Stats{}
	}
	r.k.seq += int64(writes)
	if writes > 0 {
		r.k.rr = (r.k.rr + writes) % g.Chips()
	}
	return nil
}
