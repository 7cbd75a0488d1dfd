package sim

// call is a queued continuation: fn(arg) runs when the waiter is
// granted.  With fn a package-level function and arg a pointer to the
// caller's reusable state, queueing one captures no closure — the same
// form Engine.ScheduleCall takes.
type call struct {
	fn  func(any)
	arg any
}

// waitQueue is the FIFO of continuations waiting on a Semaphore or a
// Resource.  Pop advances a head index instead of shifting the slice,
// so a grant costs O(1) however many waiters are queued; the slice is
// rewound when the queue drains, and a push into a full backing array
// first slides the live waiters down when at least half of it is
// already consumed, so a queue that never drains does not grow without
// bound.
type waitQueue struct {
	items []call
	head  int
}

// len returns the number of queued waiters.
func (q *waitQueue) len() int { return len(q.items) - q.head }

// push appends a waiter at the back of the queue.
func (q *waitQueue) push(c call) {
	if len(q.items) == cap(q.items) && q.head > 0 && 2*q.head >= len(q.items) {
		n := copy(q.items, q.items[q.head:])
		clear(q.items[n:])
		q.items = q.items[:n]
		q.head = 0
	}
	q.items = append(q.items, c)
}

// pop removes and returns the oldest waiter; the queue must be
// non-empty.
func (q *waitQueue) pop() call {
	c := q.items[q.head]
	q.items[q.head] = call{}
	q.head++
	if q.head == len(q.items) {
		q.items = q.items[:0]
		q.head = 0
	}
	return c
}
