package vtime

// Chan is a typed, optionally buffered channel whose blocking semantics are
// integrated with the simulation scheduler. It mirrors Go channels: a Send
// on a full (or unbuffered) channel blocks until a receiver is ready; a
// Recv on an empty channel blocks until a sender delivers.
//
// All operations must be called from within a simulated process.
type Chan[T any] struct {
	sim   *Sim
	name  string
	cap   int
	buf   []T
	sendq []waiter[T] // blocked senders (value attached)
	recvq []waiter[T] // blocked receivers (slot to fill)
}

type waiter[T any] struct {
	proc *Proc
	val  T  // for senders: the value being sent
	slot *T // for receivers: where to deposit the value
}

// NewChan creates a channel with the given buffer capacity (0 = unbuffered)
// bound to simulator s. The name is used in deadlock diagnostics.
func NewChan[T any](s *Sim, name string, capacity int) *Chan[T] {
	if capacity < 0 {
		panic("vtime: negative channel capacity")
	}
	return &Chan[T]{sim: s, name: name, cap: capacity}
}

// Len returns the number of buffered values.
func (c *Chan[T]) Len() int { return len(c.buf) }

// Send delivers v, blocking the calling process if no buffer space or
// receiver is available.
func (c *Chan[T]) Send(p *Proc, v T) {
	// Fast path: a receiver is already waiting.
	if len(c.recvq) > 0 {
		w := c.recvq[0]
		copy(c.recvq, c.recvq[1:])
		c.recvq = c.recvq[:len(c.recvq)-1]
		*w.slot = v
		c.sim.makeReady(w.proc)
		return
	}
	if len(c.buf) < c.cap {
		c.buf = append(c.buf, v)
		return
	}
	// Block until a receiver takes our value.
	c.sendq = append(c.sendq, waiter[T]{proc: p, val: v})
	p.pauseOn("send", c.name)
}

// TrySend delivers v without blocking. It reports whether the value was
// accepted (by a waiting receiver or buffer space).
func (c *Chan[T]) TrySend(p *Proc, v T) bool {
	if len(c.recvq) > 0 {
		w := c.recvq[0]
		copy(c.recvq, c.recvq[1:])
		c.recvq = c.recvq[:len(c.recvq)-1]
		*w.slot = v
		c.sim.makeReady(w.proc)
		return true
	}
	if len(c.buf) < c.cap {
		c.buf = append(c.buf, v)
		return true
	}
	return false
}

// Recv receives a value, blocking the calling process if none is available.
func (c *Chan[T]) Recv(p *Proc) T {
	if v, ok := c.TryRecv(p); ok {
		return v
	}
	var slot T
	c.recvq = append(c.recvq, waiter[T]{proc: p, slot: &slot})
	p.pauseOn("recv", c.name)
	return slot
}

// TryRecv receives a value without blocking. The second result reports
// whether a value was available.
func (c *Chan[T]) TryRecv(p *Proc) (T, bool) {
	if len(c.buf) > 0 {
		v := c.buf[0]
		copy(c.buf, c.buf[1:])
		c.buf = c.buf[:len(c.buf)-1]
		// A blocked sender can now occupy the freed buffer slot.
		if len(c.sendq) > 0 {
			w := c.sendq[0]
			copy(c.sendq, c.sendq[1:])
			c.sendq = c.sendq[:len(c.sendq)-1]
			c.buf = append(c.buf, w.val)
			c.sim.makeReady(w.proc)
		}
		return v, true
	}
	if len(c.sendq) > 0 { // unbuffered rendezvous
		w := c.sendq[0]
		copy(c.sendq, c.sendq[1:])
		c.sendq = c.sendq[:len(c.sendq)-1]
		c.sim.makeReady(w.proc)
		return w.val, true
	}
	var zero T
	return zero, false
}
