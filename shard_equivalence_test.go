// Shard-equivalence guard for the epoch-sharded run engine: for every
// registry scheme, RunSharded at workers=N must produce exactly the result
// of workers=1 (which delegates to the serial Run) — metrics, stats,
// latency percentiles, final mapping state, free blocks and device op
// counts, compared with reflect.DeepEqual. Run under -race this also proves
// the shard workers share no unsynchronized state.
//
// The workload matrix covers the planner's hard regimes: the two serial
// equivalence-golden workloads, the GC-steady-state write-heavy Fileserver
// (GC pre-runs), and a trim-heavy profile (sharded trim replay). The serial
// goldens themselves are pinned by equivalence_test.go; this file extends
// the contract from across-task determinism (PR 2) to inside a run.
package flexftl_test

import (
	"fmt"
	"reflect"
	"testing"

	"flexftl/internal/experiments"
	"flexftl/internal/ftl"
	"flexftl/internal/par"
	"flexftl/internal/sim"
	"flexftl/internal/ssd"
	"flexftl/internal/workload"
)

// shardSnapshot is everything one run exposes, for exact 1-vs-N comparison.
type shardSnapshot struct {
	Run        ssd.RunResult
	MapHash    uint64
	FreeBlocks int
	Counts     any // device op counters (type varies by device family)
}

// trimHeavy is the trim-stress profile: a quarter of requests are host
// discards, so the planner's sharded-trim path (and its R1/pre-run
// interactions) is exercised constantly rather than at Varmail's 5%.
func trimHeavy() workload.Profile {
	return workload.Profile{
		Name: "TrimHeavy", ReadFraction: 0.25, Intensity: workload.IntensityHigh,
		BurstLen: 256, IntraGap: 120 * sim.Microsecond, IdleGap: 5 * sim.Millisecond,
		PagesMean: 1.5, PagesCap: 4, ZipfTheta: 0.9, TrimFraction: 0.25,
	}
}

// shardCell is one (workload, device scale) point of the equivalence matrix.
// GC-stress cells shrink the device (fewer blocks per chip) so a 8000-request
// run actually reaches GC steady state — on the full evaluation geometry the
// free-block reserve would absorb the whole run and the GC pre-run path
// would go unexercised.
type shardCell struct {
	prof     workload.Profile
	blocks   int // blocks per chip (0 = evaluation geometry)
	buffer   int // write-buffer pages (0 = the default, widened to 512 on a shrunk device)
	requests int
}

// shardCells is the equivalence matrix: the serial-golden workloads plus the
// GC-heavy and trim-heavy regimes the widened planner must stay exact on.
func shardCells() []shardCell {
	cells := []shardCell{}
	for _, p := range equivWorkloads() {
		cells = append(cells, shardCell{prof: p, requests: 6000})
	}
	return append(cells,
		shardCell{prof: workload.Fileserver(), blocks: 32, requests: 8000},
		shardCell{prof: trimHeavy(), blocks: 32, requests: 8000},
		ntrxCell(),
	)
}

// ntrxCell is the sharded benchmark's profile on a shrunk device with the
// default 128-page buffer. GC-slowed service saturates the buffer, so most
// write requests meet backpressure and the planner must send them down the
// serial path (R4) — the bench's regime, which the widened-buffer cells
// deliberately avoid.
func ntrxCell() shardCell {
	return shardCell{prof: workload.NTRX(), blocks: 32, buffer: ssd.DefaultConfig().BufferPages, requests: 8000}
}

func buildShardSystem(t *testing.T, scheme string, blocks, buffer int) (*ssd.System, ftl.Host) {
	t.Helper()
	sys, h, err := newShardSystem(scheme, blocks, buffer)
	if err != nil {
		t.Fatal(err)
	}
	return sys, h
}

// newShardSystem builds and prefills one scheme's System (blocks and buffer
// 0 keep the defaults). It returns its error, so par pool tasks, which run
// off the test goroutine, can call it.
func newShardSystem(scheme string, blocks, buffer int) (*ssd.System, ftl.Host, error) {
	g := experiments.EvalGeometry()
	if blocks > 0 {
		g.BlocksPerChip = blocks
	}
	h, err := ftl.Build(scheme, ftl.BuildEnv{
		Geometry: g,
		Config:   ftl.DefaultConfig(),
		Flex:     ftl.DefaultFlexParams(),
	})
	if err != nil {
		return nil, nil, err
	}
	cfg := ssd.DefaultConfig()
	if blocks > 0 {
		// Prefill closer to capacity so the workload's write volume pushes
		// the chips into GC steady state, while leaving enough reserve that
		// the sequential prefill itself never collects (its fully-valid
		// blocks would make pathological victims). The buffer is widened so
		// GC-slowed service does not back it up — buffer backpressure (R4)
		// would otherwise absorb the GC-proximate writes before the planner's
		// R5/pre-run path ever saw them.
		cfg.PrefillFraction = 0.88
		cfg.BufferPages = 512
	}
	if buffer > 0 {
		cfg.BufferPages = buffer
	}
	sys, err := ssd.New(h, cfg)
	if err != nil {
		return nil, nil, err
	}
	if _, err := sys.Prefill(); err != nil {
		return nil, nil, err
	}
	return sys, h, nil
}

func snapshotOutcome(h ftl.Host, run ssd.RunResult) shardSnapshot {
	snap := shardSnapshot{Run: run}
	if m, ok := h.(interface{ MappingHash() uint64 }); ok {
		snap.MapHash = m.MappingHash()
	}
	if fb, ok := h.(interface{ TotalFreeBlocks() int }); ok {
		snap.FreeBlocks = fb.TotalFreeBlocks()
	}
	if f, ok := h.(ftl.FTL); ok {
		snap.Counts = f.Device().Counts()
	}
	return snap
}

// captureSharded runs one (scheme, cell) through RunSharded at the given
// worker count and snapshots the complete outcome plus the planner report.
func captureSharded(t *testing.T, scheme string, cell shardCell, workers int) (shardSnapshot, ssd.ShardReport) {
	t.Helper()
	sys, h := buildShardSystem(t, scheme, cell.blocks, cell.buffer)
	gen, err := workload.New(cell.prof, h.LogicalPages(), cell.requests, 42)
	if err != nil {
		t.Fatal(err)
	}
	run, err := sys.RunSharded(gen, workers)
	if err != nil {
		t.Fatal(err)
	}
	return snapshotOutcome(h, run), sys.ShardReport()
}

// TestShardEquivalence pins RunSharded(N) == RunSharded(1) for every
// registry scheme (MLC kernels shard; nflexTLC exercises the serial
// fallback) on the guard, GC-heavy and trim-heavy workloads.
func TestShardEquivalence(t *testing.T) {
	shardedCells := 0
	for _, scheme := range ftl.Names() {
		for _, cell := range shardCells() {
			cell := cell
			scheme := scheme
			t.Run(fmt.Sprintf("%s_%s", scheme, cell.prof.Name), func(t *testing.T) {
				serial, _ := captureSharded(t, scheme, cell, 1)
				for _, workers := range []int{2, 4} {
					sharded, rep := captureSharded(t, scheme, cell, workers)
					if !reflect.DeepEqual(serial, sharded) {
						t.Errorf("workers=%d diverged from workers=1:\nserial:  %+v\nsharded: %+v", workers, serial, sharded)
					}
					if rep.ShardedOps > 0 {
						shardedCells++
					}
				}
			})
		}
	}
	if shardedCells == 0 {
		t.Errorf("no cell executed any sharded epoch — the planner degenerated to all-serial and the contract is vacuous")
	}
}

// TestShardPlannerEffective pins per-workload non-vacuity floors on the
// evaluation geometry: the widened planner must keep a write-heavy
// GC-steady-state workload predominantly sharded (the ISSUE-8 >= 70%
// acceptance bar) with the GC pre-run path actually firing, must shard
// trims on a trim-heavy workload, and must shard a meaningful share of the
// read-heavy guard workload. Equivalence tests alone cannot catch the
// planner rotting into a 100% serial fallback; these floors can.
func TestShardPlannerEffective(t *testing.T) {
	cases := []struct {
		cell       shardCell
		minShare   float64
		wantPreRun bool
		wantTrims  bool
	}{
		{cell: shardCell{prof: workload.Fileserver(), blocks: 32, requests: 8000}, minShare: 0.70, wantPreRun: true},
		{cell: shardCell{prof: trimHeavy(), blocks: 32, requests: 8000}, minShare: 0.50, wantTrims: true},
		{cell: shardCell{prof: workload.OLTP(), requests: 6000}, minShare: 0.50},
		{cell: ntrxCell(), minShare: 0.60},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.cell.prof.Name, func(t *testing.T) {
			_, rep := captureSharded(t, "flexFTL", tc.cell, 4)
			if rep.Epochs == 0 || rep.ShardedOps == 0 {
				t.Fatalf("planner sharded nothing: %+v", rep)
			}
			if share := rep.ShardedShare(); share < tc.minShare {
				t.Errorf("sharded-op share %.3f below floor %.2f (report %+v)", share, tc.minShare, rep)
			}
			if tc.wantPreRun && rep.GCPreRuns == 0 {
				t.Errorf("GC pre-run path never fired on a GC-steady-state workload (report %+v)", rep)
			}
			if tc.wantTrims && rep.ShardedTrims == 0 {
				t.Errorf("no trims sharded on a trim-heavy workload (report %+v)", rep)
			}
			t.Logf("share=%.3f epochs=%d sharded=%d serial=%d preruns=%d(+%d copies) trims=%d fallbacks=%+v",
				rep.ShardedShare(), rep.Epochs, rep.ShardedOps, rep.SerialOps,
				rep.GCPreRuns, rep.GCPreRunCopies, rep.ShardedTrims, rep.Fallbacks)
		})
	}
}

// TestRunShardedMQEquivalence pins the across-runs determinism contract on
// the NTRX and trim-heavy profiles: runs of flexFTL through the serial Run,
// fanned out over an internal/par pool, give whole outcomes (metrics, stats,
// mapping hash, free blocks, device op counts) that do not depend on the
// pool width. Under -race it also shows that concurrent runs share no
// unsynchronized state. Each pool task runs its own seed, so a result landing
// in the wrong slot fails too.
func TestRunShardedMQEquivalence(t *testing.T) {
	for _, prof := range []workload.Profile{workload.NTRX(), trimHeavy()} {
		prof := prof
		t.Run(prof.Name, func(t *testing.T) {
			outcomes := func(workers int) []shardSnapshot {
				out, err := par.Map(workers, 4, func(_, task int) (shardSnapshot, error) {
					sys, h, err := newShardSystem("flexFTL", 0, 0)
					if err != nil {
						return shardSnapshot{}, err
					}
					gen, err := workload.New(prof, h.LogicalPages(), 4000, uint64(42+task))
					if err != nil {
						return shardSnapshot{}, err
					}
					run, err := sys.Run(gen)
					if err != nil {
						return shardSnapshot{}, err
					}
					return snapshotOutcome(h, run), nil
				})
				if err != nil {
					t.Fatal(err)
				}
				return out
			}
			serial, pooled := outcomes(1), outcomes(4)
			for i := range serial {
				if !reflect.DeepEqual(serial[i], pooled[i]) {
					t.Errorf("task %d diverged at pool width 4:\nwidth 1: %+v\nwidth 4: %+v", i, serial[i], pooled[i])
				}
			}
			if reflect.DeepEqual(serial[0].Run, serial[1].Run) {
				t.Errorf("seeds 42 and 43 gave the same run; the per-task seed is not reaching the workload")
			}
		})
	}
}
