// Package vtime implements a deterministic discrete-event simulation
// kernel with cooperative green threads.
//
// A Sim hosts a set of processes (Proc), each backed by a goroutine, but
// only one process ever executes at a time: a process runs until it blocks
// on a timer (Sleep) or a channel operation (Chan.Send/Chan.Recv), at which
// point control returns to the scheduler. When no process is runnable the
// clock jumps to the earliest pending timer. This yields fully
// deterministic, repeatable executions: identical inputs produce identical
// event orders and identical virtual timestamps, regardless of the host
// machine or GOMAXPROCS.
//
// The kernel is the substrate for the CSD emulator and the database
// clients: group-switch latencies, transfer times and query processing
// costs are all expressed as virtual durations, so experiments that take
// hours of "wall-clock" time in the paper complete in milliseconds here
// while preserving the exact timing arithmetic.
package vtime

import (
	"container/heap"
	"fmt"
	"sort"
	"time"
)

// Sim is a discrete-event simulator. Create one with NewSim, add processes
// with Spawn, then call Run. A Sim must not be reused after Run returns.
type Sim struct {
	now     time.Duration
	ready   []*Proc // FIFO queue of runnable processes
	timers  timerHeap
	procs   []*Proc
	seq     int // tie-break counter for timers
	running bool
	halted  bool
}

// NewSim returns an empty simulator with the clock at zero.
func NewSim() *Sim {
	return &Sim{}
}

// Now returns the current virtual time.
func (s *Sim) Now() time.Duration { return s.now }

// Proc is a simulated process. All blocking methods must be called from
// the process's own function, never from another goroutine.
type Proc struct {
	id     int
	name   string
	sim    *Sim
	resume chan struct{} // scheduler -> proc: run
	yield  chan struct{} // proc -> scheduler: paused or done
	done   bool
	// waitOp ("send" or "recv") and waitChan name the channel operation
	// the process last paused in. Only a deadlock report reads them, and
	// every process alive at a deadlock is paused in one: a sleeper holds
	// a timer, and Run reports a deadlock only when none is pending.
	waitOp, waitChan string
}

// Name returns the process name given at Spawn.
func (p *Proc) Name() string { return p.name }

// ID returns the process's unique id (assigned in Spawn order).
func (p *Proc) ID() int { return p.id }

// Now returns the current virtual time.
func (p *Proc) Now() time.Duration { return p.sim.now }

// Sim returns the simulator this process belongs to.
func (p *Proc) Sim() *Sim { return p.sim }

// Spawn registers a new process. If called before Run, the process starts
// when Run begins; if called from inside a running process, the new process
// becomes runnable at the current virtual time (after the caller yields).
func (s *Sim) Spawn(name string, fn func(*Proc)) *Proc {
	if s.halted {
		panic("vtime: Spawn after Run returned")
	}
	p := &Proc{
		id:     len(s.procs),
		name:   name,
		sim:    s,
		resume: make(chan struct{}),
		yield:  make(chan struct{}),
	}
	s.procs = append(s.procs, p)
	go func() {
		<-p.resume
		fn(p)
		p.done = true
		p.yield <- struct{}{}
	}()
	s.ready = append(s.ready, p)
	return p
}

// timer is a pending wake-up for a sleeping process.
type timer struct {
	at   time.Duration
	seq  int
	proc *Proc
}

type timerHeap []timer

func (h timerHeap) Len() int { return len(h) }
func (h timerHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}
func (h timerHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *timerHeap) Push(x any)   { *h = append(*h, x.(timer)) }
func (h *timerHeap) Pop() any     { old := *h; n := len(old); x := old[n-1]; *h = old[:n-1]; return x }
func (h timerHeap) peek() timer   { return h[0] }
func (s *Sim) pushTimer(p *Proc, at time.Duration) {
	s.seq++
	heap.Push(&s.timers, timer{at: at, seq: s.seq, proc: p})
}

// Sleep suspends the process for d of virtual time. Negative durations are
// treated as zero (the process yields but resumes at the same timestamp,
// after currently runnable processes).
func (p *Proc) Sleep(d time.Duration) {
	if d < 0 {
		d = 0
	}
	s := p.sim
	s.pushTimer(p, s.now+d)
	p.pause()
}

// Yield gives other runnable processes a chance to run at the current
// virtual time. Equivalent to Sleep(0).
func (p *Proc) Yield() { p.Sleep(0) }

// pause hands control back to the scheduler and waits to be resumed.
func (p *Proc) pause() {
	p.yield <- struct{}{}
	<-p.resume
}

// pauseOn is pause for a process that blocks in op on the named channel.
func (p *Proc) pauseOn(op, channel string) {
	p.waitOp, p.waitChan = op, channel
	p.pause()
}

// makeReady appends p to the runnable queue.
func (s *Sim) makeReady(p *Proc) {
	s.ready = append(s.ready, p)
}

// step runs one runnable process until it yields. Caller guarantees
// len(s.ready) > 0.
func (s *Sim) step() {
	p := s.ready[0]
	copy(s.ready, s.ready[1:])
	s.ready = s.ready[:len(s.ready)-1]
	p.resume <- struct{}{}
	<-p.yield
}

// DeadlockError reports that Run stopped with processes blocked forever.
type DeadlockError struct {
	At      time.Duration
	Blocked []string // "name: reason" for each stuck process
}

func (e *DeadlockError) Error() string {
	return fmt.Sprintf("vtime: deadlock at %v; blocked: %v", e.At, e.Blocked)
}

// Run executes the simulation until every process has finished. It returns
// a *DeadlockError if some processes remain blocked with no pending timers.
func (s *Sim) Run() error {
	if s.running || s.halted {
		panic("vtime: Run called twice")
	}
	s.running = true
	defer func() { s.running = false; s.halted = true }()
	for {
		for len(s.ready) > 0 {
			s.step()
		}
		if s.timers.Len() > 0 {
			at := s.timers.peek().at
			if at < s.now {
				panic("vtime: time went backwards")
			}
			s.now = at
			// Wake every timer due at this instant, in registration order.
			for s.timers.Len() > 0 && s.timers.peek().at == at {
				t := heap.Pop(&s.timers).(timer)
				s.makeReady(t.proc)
			}
			continue
		}
		// No runnable processes and no timers: either done or deadlocked.
		var stuck []string
		for _, p := range s.procs {
			if !p.done {
				stuck = append(stuck, fmt.Sprintf("%s: %s on %s", p.name, p.waitOp, p.waitChan))
			}
		}
		if len(stuck) == 0 {
			return nil
		}
		sort.Strings(stuck)
		return &DeadlockError{At: s.now, Blocked: stuck}
	}
}
