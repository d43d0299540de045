package alloctest

import "testing"

var sink *[64]byte

// TestCountIsExact: a call that allocates once in 64 calls, as an appended
// slice that doubles now and then does, reads 0 from testing.AllocsPerRun at
// 50 runs and its true total from Count; Count makes AllocsPerRun's runs+1
// calls.
func TestCountIsExact(t *testing.T) {
	calls := 0
	f := func() {
		calls++
		if calls%64 == 0 {
			sink = new([64]byte)
		}
	}
	if got := testing.AllocsPerRun(50, f); got != 0 {
		t.Fatalf("AllocsPerRun = %v: the averaging this package exists for is gone", got)
	}
	calls = 0
	if got := Count(127, f); got != 2 || calls != 128 {
		t.Errorf("Count(127) = %d allocations in %d calls, want 2 in 128", got, calls)
	}
}
