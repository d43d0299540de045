package ssd

import (
	"runtime"
	"testing"
	"time"

	"flexftl/internal/obs"
	"flexftl/internal/sim"
	"flexftl/internal/workload"
)

// steadyStateAllocs warms a flexFTL system through RunSharded at workers=1
// (the serial delegation path — the one every single-threaded caller takes),
// then measures the marginal allocations of servicing additional host ops
// through the same per-op machinery the run loop uses. Warmup grows every
// amortized structure — the inflight heap, the metrics response-time slices,
// the FTL's scratch buffers — so the steady state is genuinely measured, not
// the cold ramp.
func steadyStateAllocs(t *testing.T, withRecorder bool) float64 {
	t.Helper()
	sys := newSystem(t, "flexFTL")
	if withRecorder {
		sys.SetRecorder(obs.NewRecorder(obs.Options{}))
	}
	if _, err := sys.Prefill(); err != nil {
		t.Fatal(err)
	}
	gen, err := workload.New(workload.OLTP(), sys.F.LogicalPages(), 4000, 7)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sys.RunSharded(gen, 1); err != nil {
		t.Fatal(err)
	}
	// Continue the stream through the internal per-op path on a warmed
	// state: this is exactly the loop body of Run minus run setup/teardown.
	// The continuation starts one virtual minute after the prefill base so
	// time stays monotonic past the first run's tail and the opening idle
	// window lets background GC restore the free-block cushion.
	rs := sys.newRunState()
	rs.base += 60 * sim.Second
	rs.busyUntil = rs.base
	const contOps = 40000
	cont, err := workload.New(workload.OLTP(), sys.F.LogicalPages(), contOps, 8)
	if err != nil {
		t.Fatal(err)
	}
	reqs := make([]workload.Request, 0, contOps)
	for {
		req, ok := cont.Next()
		if !ok {
			break
		}
		reqs = append(reqs, req)
	}
	serve := func(batch []workload.Request) {
		for _, req := range batch {
			arrival := rs.base + req.Arrival
			if err := sys.prologue(rs, arrival); err != nil {
				t.Fatal(err)
			}
			if err := sys.stepOp(rs, req, arrival); err != nil {
				t.Fatal(err)
			}
		}
	}
	// Warm the fresh runState's collector slices before measuring.
	serve(reqs[:contOps/2])
	rest := reqs[contOps/2:]
	total := testing.AllocsPerRun(1, func() { serve(rest) })
	return total / float64(len(rest))
}

// TestRunSteadyStateAllocs0 is the run-engine twin of the obs package's
// enabled/disabled-path guards: with the epoch-sharded entry point at
// workers=1, the per-op service path must be allocation-free in steady
// state, with and without a live recorder. The bound tolerates only the
// amortized slice doublings of the metrics collector (a handful of mallocs
// across 80k ops), not any per-op allocation.
func TestRunSteadyStateAllocs0(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation guard needs the long warmup")
	}
	for _, tc := range []struct {
		name         string
		withRecorder bool
	}{
		{"no_recorder", false},
		{"with_recorder", true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			perOp := steadyStateAllocs(t, tc.withRecorder)
			if perOp >= 0.01 {
				t.Errorf("steady-state path allocates %.4f/op, want ~0", perOp)
			}
		})
	}
}

// TestRunShardedSteadyStateAllocs is TestRunSteadyStateAllocs0's twin at
// workers=2: planning an epoch, dispatching it to the shard runner and
// merging it at the barrier allocate nothing once the run's amortised
// structures have grown. Two NTRX runs on fresh systems differ only in
// length, so their allocation difference is what the extra epochs cost. The
// requests are drawn before measuring, so the generator is not counted.
func TestRunShardedSteadyStateAllocs(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation guard needs two full runs")
	}
	run := func(requests int) (mallocs int64, epochs int) {
		sys := newSystem(t, "flexFTL")
		if _, err := sys.Prefill(); err != nil {
			t.Fatal(err)
		}
		gen, err := workload.New(workload.NTRX(), sys.F.LogicalPages(), requests, 7)
		if err != nil {
			t.Fatal(err)
		}
		reqs := make([]workload.Request, 0, requests)
		for req, ok := gen.Next(); ok; req, ok = gen.Next() {
			reqs = append(reqs, req)
		}
		runtime.GC()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err = sys.RunSharded(&sliceGen{reqs: reqs}, 2)
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		return int64(after.Mallocs - before.Mallocs), sys.ShardReport().Epochs
	}
	shortM, shortE := run(5_000)
	longM, longE := run(20_000)
	extra := longE - shortE
	if extra <= 1000 {
		t.Fatalf("the longer run executed only %d more epochs (%d vs %d); the guard needs > 1000", extra, longE, shortE)
	}
	perEpoch := float64(longM-shortM) / float64(extra)
	t.Logf("%d vs %d epochs: %d vs %d mallocs, %.4f per extra epoch", shortE, longE, shortM, longM, perEpoch)
	if perEpoch >= 0.05 {
		t.Errorf("sharded run allocates %.4f per extra epoch, want ~0", perEpoch)
	}
}

// TestRunShardedLifecycle: RunSharded leaves no goroutine behind, whatever
// the worker count — the shard runner's pool is joined before it returns.
func TestRunShardedLifecycle(t *testing.T) {
	for _, workers := range []int{2, 4, 16} {
		sys := newSystem(t, "flexFTL")
		if _, err := sys.Prefill(); err != nil {
			t.Fatal(err)
		}
		gen, err := workload.New(workload.NTRX(), sys.F.LogicalPages(), 500, 7)
		if err != nil {
			t.Fatal(err)
		}
		base := quietGoroutines()
		if _, err := sys.RunSharded(gen, workers); err != nil {
			t.Fatal(err)
		}
		if sys.ShardReport().Epochs == 0 {
			t.Fatalf("workers=%d: no epoch ran on the shard runner", workers)
		}
		if got := settledGoroutines(base); got != base {
			t.Errorf("workers=%d: %d goroutines after RunSharded, %d before", workers, got, base)
		}
	}
}

// quietGoroutines returns the goroutine count once it has held still for
// 10 ms, or whatever it is after a second: when a test starts, the goroutine
// of the test before it may still be exiting, and counting it into a
// baseline would report the exit as a goroutine RunSharded took away.
func quietGoroutines() int {
	n := runtime.NumGoroutine()
	for deadline := time.Now().Add(time.Second); time.Now().Before(deadline); {
		time.Sleep(10 * time.Millisecond)
		m := runtime.NumGoroutine()
		if m == n {
			break
		}
		n = m
	}
	return n
}

// settledGoroutines returns the goroutine count once it is back at want, or
// whatever it is after a second. A goroutine that has signalled its exit
// still counts until the scheduler retires it.
func settledGoroutines(want int) int {
	deadline := time.Now().Add(time.Second)
	for runtime.NumGoroutine() != want && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	return runtime.NumGoroutine()
}

// TestRunAllocBytesCeiling: one Run allocates about the bytes its packed
// latency samples occupy, and a bounded slack. A sample is written once, as 4
// bytes, into its class's stage, and a full stage is sorted and Rice-coded
// once into a run, under 12 bits a sample for these latencies, run headers
// included. A 50 000-request OLTP run on a prefilled flexFTL device records at
// most two samples per request (a write's ack and flush): 3 B a request. A
// store that kept each sample in its fixed-width delta (16 bits) or as 4
// bytes, or a closed bandwidth window in 16 bytes, allocates more than the
// ceiling. The requests are drawn before measuring, so the generator's own
// bookkeeping is not counted.
func TestRunAllocBytesCeiling(t *testing.T) {
	const requests = 50_000
	// runSlack is what a run allocates beyond its samples' packed bytes,
	// 445 KiB in all here with the samples: the collector's count tiers
	// (64 KiB), each class's ramp of stages (27 KiB, three classes), the
	// first two slabs the runs are carved from (96 KiB, mostly unfilled),
	// the radix scratch (16 KiB), the closed bandwidth windows (32 KiB per
	// 4 096), the bandwidth CDF's float64 per window, and the run's own
	// structures (74 KiB).
	const runSlack = 320 << 10
	sys := newSystem(t, "flexFTL")
	if _, err := sys.Prefill(); err != nil {
		t.Fatal(err)
	}
	gen, err := workload.New(workload.OLTP(), sys.F.LogicalPages(), requests, 7)
	if err != nil {
		t.Fatal(err)
	}
	reqs := make([]workload.Request, 0, requests)
	for req, ok := gen.Next(); ok; req, ok = gen.Next() {
		reqs = append(reqs, req)
	}
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	res, err := sys.Run(&sliceGen{reqs: reqs})
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	if res.Metrics.Requests != requests {
		t.Fatalf("ran %d requests, want %d", res.Metrics.Requests, requests)
	}
	got := after.TotalAlloc - before.TotalAlloc
	t.Logf("%d requests (%d reads, %d writes, %d trims): %d bytes allocated, %.1f B/request",
		requests, res.Metrics.Reads, res.Metrics.Writes, res.Metrics.Trims, got, float64(got)/requests)
	if limit := uint64(3*requests + runSlack); got > limit {
		t.Errorf("Run allocated %d bytes for %d requests, want <= %d (3 B/request + %d)",
			got, requests, limit, runSlack)
	}
}
