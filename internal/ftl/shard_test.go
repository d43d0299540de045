package ftl

import (
	"runtime"
	"testing"
	"time"

	"flexftl/internal/core"
	"flexftl/internal/nand"
	"flexftl/internal/sim"
)

// TestShardRunnerLifecycle pins the runner's goroutine budget: ExecEpoch's
// caller runs a shard itself, so a runner keeps min(workers, channels) - 1
// pool goroutines, an epoch that touches every channel executes on them, and
// Close joins every one.
func TestShardRunnerLifecycle(t *testing.T) {
	g := nand.TestGeometry()
	g.Channels = 8
	dev, err := nand.NewDevice(nand.Config{Geometry: g, Timing: nand.DefaultTiming(), Rules: core.RPS})
	if err != nil {
		t.Fatal(err)
	}
	k, err := NewFlexFTL(dev, DefaultConfig(), DefaultFlexParams())
	if err != nil {
		t.Fatal(err)
	}
	now := sim.Time(0)
	for _, workers := range []int{1, 2, 4, 16} {
		base := runtime.NumGoroutine()
		r := NewShardRunner(k, workers)
		want := min(workers, g.Channels) - 1
		if r.pool != want {
			t.Errorf("workers=%d: pool of %d goroutines, want %d", workers, r.pool, want)
		}
		if got := runtime.NumGoroutine() - base; got != want {
			t.Errorf("workers=%d: %d goroutines started, want %d", workers, got, want)
		}
		ops := make([]EpochOp, g.Chips())
		for i := range ops {
			ops[i] = EpochOp{Write: true, LPN: LPN(workers*g.Chips() + i), Chip: k.PeekChip(i), Arrival: now, Util: 0.5}
		}
		if err := r.ExecEpoch(ops); err != nil {
			t.Fatal(err)
		}
		for _, op := range ops {
			now = max(now, op.Done)
		}
		r.Close()
		if got := settledGoroutines(base); got != base {
			t.Errorf("workers=%d: %d goroutines after Close, %d before", workers, got, base)
		}
	}
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
