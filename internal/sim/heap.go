package sim

// TimeHeap is a min-heap of virtual times, the simulator's one time queue:
// the storage-system runner keeps the completion times of its in-flight
// buffered page programs in it. The heap operations are implemented directly
// (rather than through container/heap) so pushes and pops move bare times
// without boxing them into interfaces, and the elements hold no pointer.
// Equal times are interchangeable, so no tie-break order is kept. The zero
// value is an empty heap; h[0] is the earliest time when Len() > 0.
type TimeHeap []Time

// Len returns the number of queued times.
func (h TimeHeap) Len() int { return len(h) }

// Push inserts a time, sifting up to restore the heap order.
func (h *TimeHeap) Push(t Time) {
	*h = append(*h, t)
	s := *h
	i := len(s) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if s[parent] <= s[i] {
			break
		}
		s[parent], s[i] = s[i], s[parent]
		i = parent
	}
}

// Pop removes and returns the earliest time. The heap must not be empty.
func (h *TimeHeap) Pop() Time {
	s := *h
	top := s[0]
	n := len(s) - 1
	s[0] = s[n]
	s = s[:n]
	*h = s
	i := 0
	for {
		l := 2*i + 1
		if l >= n {
			break
		}
		min := l
		if r := l + 1; r < n && s[r] < s[l] {
			min = r
		}
		if s[i] <= s[min] {
			break
		}
		s[i], s[min] = s[min], s[i]
		i = min
	}
	return top
}
