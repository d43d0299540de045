package sim

import (
	"slices"
	"testing"
	"testing/quick"
)

func TestTimeString(t *testing.T) {
	cases := []struct {
		t    Time
		want string
	}{
		{0, "0us"},
		{999, "999us"},
		{Millisecond, "1.000ms"},
		{1500, "1.500ms"},
		{Second, "1.000000s"},
		{2*Second + 500*Millisecond, "2.500000s"},
		{-250, "-250us"},
		{MaxTime, "+inf"},
	}
	for _, c := range cases {
		if got := c.t.String(); got != c.want {
			t.Errorf("Time(%d).String() = %q, want %q", int64(c.t), got, c.want)
		}
	}
}

func TestTimeConversions(t *testing.T) {
	if got := (2 * Second).Seconds(); got != 2.0 {
		t.Errorf("Seconds() = %v, want 2", got)
	}
	if got := (3 * Millisecond).Millis(); got != 3.0 {
		t.Errorf("Millis() = %v, want 3", got)
	}
}

func TestMaxMinOf(t *testing.T) {
	if MaxOf(3, 7) != 7 || MaxOf(7, 3) != 7 {
		t.Error("MaxOf wrong")
	}
	if MinOf(3, 7) != 3 || MinOf(7, 3) != 3 {
		t.Error("MinOf wrong")
	}
}

// drain pops every queued time <= deadline in order, the way the runner
// releases the buffer slots of completed programs.
func drain(h *TimeHeap, deadline Time) []Time {
	var got []Time
	for h.Len() > 0 && (*h)[0] <= deadline {
		got = append(got, h.Pop())
	}
	return got
}

func TestQueueOrdering(t *testing.T) {
	var h TimeHeap
	for _, at := range []Time{30, 10, 20} {
		h.Push(at)
	}
	if got := drain(&h, MaxTime); !slices.Equal(got, []Time{10, 20, 30}) {
		t.Errorf("pop order = %v, want [10 20 30]", got)
	}
	if h.Len() != 0 {
		t.Errorf("Len() = %d after draining, want 0", h.Len())
	}
}

// TestQueueFIFOAtSameTime: equal times are interchangeable, but each one
// pushed is popped exactly once.
func TestQueueFIFOAtSameTime(t *testing.T) {
	var h TimeHeap
	for i := 0; i < 10; i++ {
		h.Push(5)
	}
	h.Push(7)
	got := drain(&h, 5)
	if len(got) != 10 || !slices.Equal(h, TimeHeap{7}) {
		t.Fatalf("drained %v leaving %v, want ten 5s leaving [7]", got, h)
	}
}

// TestQueueNestedScheduling: pushes during a drain — including times earlier
// than ones already queued, which the runner does — pop in order.
func TestQueueNestedScheduling(t *testing.T) {
	var h TimeHeap
	h.Push(10)
	h.Push(30)
	var fired []Time
	for h.Len() > 0 {
		now := h.Pop()
		fired = append(fired, now)
		if now == 10 {
			h.Push(now + 5)
			h.Push(now + 2)
		}
	}
	if !slices.Equal(fired, []Time{10, 12, 15, 30}) {
		t.Errorf("fired = %v, want [10 12 15 30]", fired)
	}
}

// TestRunUntil: draining to a deadline pops every time <= it and leaves the
// later ones queued.
func TestRunUntil(t *testing.T) {
	var h TimeHeap
	for _, at := range []Time{20, 5, 15, 10} {
		h.Push(at)
	}
	if got := drain(&h, 12); !slices.Equal(got, []Time{5, 10}) {
		t.Fatalf("drain(12) = %v, want [5 10]", got)
	}
	if h.Len() != 2 || h[0] != 15 {
		t.Errorf("after drain(12): heap %v, want 15 earliest of 2", h)
	}
	if got := drain(&h, 100); !slices.Equal(got, []Time{15, 20}) || h.Len() != 0 {
		t.Errorf("drain(100) = %v with %d left, want [15 20] and none", got, h.Len())
	}
}

func TestQueueEmptyStep(t *testing.T) {
	var h TimeHeap
	if h.Len() != 0 || len(drain(&h, MaxTime)) != 0 {
		t.Error("zero-value heap is not empty")
	}
	h.Push(3)
	if h.Pop() != 3 || h.Len() != 0 {
		t.Error("push then pop did not return to empty")
	}
}

// Property: for any multiset of pushed times, draining the heap returns the
// same multiset in sorted order.
func TestQueueDispatchSortedProperty(t *testing.T) {
	f := func(times []uint16) bool {
		var h TimeHeap
		want := make([]Time, len(times))
		for i, raw := range times {
			h.Push(Time(raw))
			want[i] = Time(raw)
		}
		slices.Sort(want)
		got := drain(&h, MaxTime)
		return slices.Equal(got, want) && h.Len() == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
