package ftl

// IntQueue is a growable FIFO ring of ints, used for the free-block lists
// and the FTLs' block-phase queues. Push and PopFront are O(1) and reuse the
// backing array; the previous `s = s[1:]` idiom pinned the slice head, so
// every Push after a pop grew the backing array forever.
//
// The capacity is zero or a power of two (grow's invariant; a ring handed
// in as buf must keep it), so a ring position is wrapped with a mask
// instead of a division.
type IntQueue struct {
	buf  []int
	head int
	n    int
}

// Len returns the number of queued values.
func (q *IntQueue) Len() int { return q.n }

// Front returns the oldest value without removing it.
func (q *IntQueue) Front() int { return q.At(0) }

// slot returns the ring position of the i-th value from the front.
func (q *IntQueue) slot(i int) int { return (q.head + i) & (len(q.buf) - 1) }

// At returns the i-th value from the front (0 = oldest).
func (q *IntQueue) At(i int) int {
	if i < 0 || i >= q.n {
		panic("ftl: IntQueue index out of range")
	}
	return q.buf[q.slot(i)]
}

// Push appends a value at the back.
func (q *IntQueue) Push(v int) {
	if q.n == len(q.buf) {
		q.grow()
	}
	q.buf[q.slot(q.n)] = v
	q.n++
}

// PopFront removes and returns the oldest value.
func (q *IntQueue) PopFront() int {
	if q.n == 0 {
		panic("ftl: PopFront of empty IntQueue")
	}
	v := q.buf[q.head]
	q.head = q.slot(1)
	q.n--
	if q.n == 0 {
		q.head = 0
	}
	return v
}

// RemoveAt removes and returns the i-th value from the front, shifting the
// values behind it forward. O(n-i); the free lists that use it stay short and
// the wear-aware placement that needs it already scanned the queue anyway.
func (q *IntQueue) RemoveAt(i int) int {
	v := q.At(i) // bounds-checked
	for j := i; j < q.n-1; j++ {
		q.buf[q.slot(j)] = q.buf[q.slot(j+1)]
	}
	q.n--
	if q.n == 0 {
		q.head = 0
	}
	return v
}

// Cap returns the current backing-array capacity (tests assert it stays
// bounded over many push/pop cycles, and that it is a power of two).
func (q *IntQueue) Cap() int { return len(q.buf) }

// grow doubles the capacity, starting at 8, so it stays a power of two —
// the invariant slot's mask relies on.
func (q *IntQueue) grow() {
	c := 2 * len(q.buf)
	if c < 8 {
		c = 8
	}
	nb := make([]int, c)
	for i := 0; i < q.n; i++ {
		nb[i] = q.buf[q.slot(i)]
	}
	q.buf, q.head = nb, 0
}
