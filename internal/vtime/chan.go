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
	buf   ring[T]
	sendq ring[sender[T]] // blocked senders
	recvq ring[*Proc]     // blocked receivers
	// handed carries values to receivers that were parked when the value
	// was sent. A Send that finds a parked receiver pops it, pushes the
	// value here and makes the receiver runnable; the receiver pops its
	// value when it resumes. One FIFO serves every receiver of the channel
	// because the ready queue is FIFO too: receivers resume in the order
	// they were woken, which is the order their values were pushed, and
	// nothing else reads this queue (TryRecv and unparked Recvs see only
	// buf and sendq, so a handed value is as invisible to them as the
	// parked receiver's private slot it replaces).
	handed ring[T]
}

// sender is a process blocked in Send and the value it is sending.
type sender[T any] struct {
	proc *Proc
	val  T
}

// NewChan creates a channel with the given buffer capacity (0 = unbuffered)
// bound to simulator s. The name is used in deadlock diagnostics.
func NewChan[T any](s *Sim, name string, capacity int) *Chan[T] {
	if capacity < 0 {
		panic("vtime: negative channel capacity")
	}
	return &Chan[T]{sim: s, name: name, cap: capacity}
}

// Reset empties the channel for the next run of its Reset Sim: values
// sent and never received are dropped. Call it only between runs.
func (c *Chan[T]) Reset() {
	c.buf.reset()
	c.sendq.reset()
	c.recvq.reset()
	c.handed.reset()
}

// Len returns the number of buffered values.
func (c *Chan[T]) Len() int { return c.buf.len() }

// Send delivers v, blocking the calling process if no buffer space or
// receiver is available.
func (c *Chan[T]) Send(p *Proc, v T) {
	if c.TrySend(p, v) {
		return
	}
	// Block until a receiver takes our value.
	c.sendq.push(sender[T]{proc: p, val: v})
	p.pauseOn("send", c.name)
}

// TrySend delivers v without blocking. It reports whether the value was
// accepted (by a waiting receiver or buffer space).
func (c *Chan[T]) TrySend(p *Proc, v T) bool {
	if c.recvq.len() > 0 {
		c.handed.push(v)
		c.sim.makeReady(c.recvq.pop())
		return true
	}
	if c.buf.len() < c.cap {
		c.buf.push(v)
		return true
	}
	return false
}

// Recv receives a value, blocking the calling process if none is available.
func (c *Chan[T]) Recv(p *Proc) T {
	if v, ok := c.TryRecv(p); ok {
		return v
	}
	c.recvq.push(p)
	p.pauseOn("recv", c.name)
	return c.handed.pop()
}

// TryRecv receives a value without blocking. The second result reports
// whether a value was available.
func (c *Chan[T]) TryRecv(p *Proc) (T, bool) {
	if c.buf.len() > 0 {
		v := c.buf.pop()
		// A blocked sender can now occupy the freed buffer slot.
		if c.sendq.len() > 0 {
			w := c.sendq.pop()
			c.buf.push(w.val)
			c.sim.makeReady(w.proc)
		}
		return v, true
	}
	if c.sendq.len() > 0 { // unbuffered rendezvous
		w := c.sendq.pop()
		c.sim.makeReady(w.proc)
		return w.val, true
	}
	var zero T
	return zero, false
}
