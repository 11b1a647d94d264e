package vtime

// ring is a FIFO queue over a circular buffer: push and pop are O(1)
// whatever the depth, the buffer grows by doubling and is never shrunk, and
// pop zeroes the slot it vacates — a drained queue keeps nothing it held
// reachable. The ready queue, a Chan's buffer and its two wait queues are
// all rings.
type ring[T any] struct {
	buf  []T // len is zero or a power of two
	head int // index of the oldest element
	n    int // elements queued
}

func (q *ring[T]) len() int { return q.n }

func (q *ring[T]) push(v T) {
	if q.n == len(q.buf) {
		grown := make([]T, max(4, 2*len(q.buf)))
		k := copy(grown, q.buf[q.head:])
		copy(grown[k:], q.buf[:q.head])
		q.buf, q.head = grown, 0
	}
	q.buf[(q.head+q.n)&(len(q.buf)-1)] = v
	q.n++
}

// pop removes and returns the oldest element. The queue must not be empty.
func (q *ring[T]) pop() T {
	var zero T
	v := q.buf[q.head]
	q.buf[q.head] = zero
	q.head = (q.head + 1) & (len(q.buf) - 1)
	q.n--
	return v
}

// reset empties the queue, keeping its buffer.
func (q *ring[T]) reset() {
	clear(q.buf)
	q.head, q.n = 0, 0
}
