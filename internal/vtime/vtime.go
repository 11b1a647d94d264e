// Package vtime implements a deterministic discrete-event simulation
// kernel with cooperative green threads.
//
// A Sim hosts a set of processes (Proc), each backed by a goroutine, but
// only one process ever executes at a time: a process runs until it blocks
// on a timer (Sleep) or a channel operation (Chan.Send/Chan.Recv). This
// yields fully deterministic, repeatable executions: identical inputs
// produce identical event orders and identical virtual timestamps,
// regardless of the host machine or GOMAXPROCS.
//
// # The baton
//
// There is no scheduler goroutine. The right to run is a baton, and only
// its holder may touch Sim, Chan or any state the simulated processes
// share (a csd.CSD's queues, a client's proxy): none of it is locked.
//
// The process that blocks or finishes picks its successor itself
// (Sim.next): the head of the FIFO ready queue or, when that is empty, the
// clock jumps to the earliest pending timer and every process due at that
// instant becomes ready in the order the timers were set — so whoever finds
// the ready queue empty is the one that advances the clock. If it picked
// itself (a sleeper that is the only runnable process) it simply goes on;
// otherwise it passes the baton with one send on the successor's
// 1-buffered resume channel and parks on its own. That send, and the
// receive that completes it, is the happens-before edge between everything
// the old holder wrote and everything the new holder reads; Run's start
// and the idle signal are the same edge to and from the caller of Run.
//
// A value sent to a parked receiver travels through the channel's own
// hand-off queue, not a per-receive slot: receivers may share one FIFO
// because they resume in the order they were woken (see Chan.handed).
//
// Exactly one site decides that nothing can run: Sim.pass, when the ready
// queue and the timer heap are both empty. It signals Run, which returns
// nil if no process is left and a *DeadlockError otherwise. A kernel that
// outlives one batch of work — one that external goroutines hand work to —
// will park at that site instead of returning.
//
// # Reset
//
// A Sim whose Run returned nil may be Reset and run again: the clock,
// the process ids and the timer sequence return to zero, so the next run
// is the run a new Sim would make, while the ready queue, the timer heap,
// the live set and the records of finished processes keep their memory.
// A finished process's record is reused by a later Spawn, in this run or
// the next, only after its goroutine made its final hand-off (the baton
// or the idle signal); a Chan of the Sim is emptied with Chan.Reset
// rather than made again. A Sim whose Run failed is not reused: its
// blocked processes are parked for good.
//
// The kernel is the substrate for the CSD emulator and the database
// clients: group-switch latencies, transfer times and query processing
// costs are all expressed as virtual durations, so experiments that take
// hours of "wall-clock" time in the paper complete in milliseconds here
// while preserving the exact timing arithmetic.
package vtime

import (
	"fmt"
	"sort"
	"time"
)

// Sim is a discrete-event simulator. Create one with NewSim, add processes
// with Spawn, then call Run. After a Run that returned nil the Sim may be
// Reset and run again; otherwise it must not be reused.
type Sim struct {
	now     time.Duration
	ready   ring[*Proc] // runnable processes, FIFO
	timers  timerHeap
	live    []*Proc // spawned and not finished, in no particular order
	spawned int     // processes spawned since NewSim or Reset: the next Proc.ID
	seq     int     // tie-break counter for timers
	running bool
	halted  bool
	// free holds the records of finished processes, for Spawn to reuse.
	free []*Proc
	// idle tells Run that nothing can run any more. Buffered so the last
	// process can signal and exit without waiting for Run to be scheduled.
	idle chan struct{}
}

// NewSim returns an empty simulator with the clock at zero.
func NewSim() *Sim {
	return &Sim{idle: make(chan struct{}, 1)}
}

// Now returns the current virtual time.
func (s *Sim) Now() time.Duration { return s.now }

// Proc is a simulated process. All blocking methods must be called from
// the process's own function, never from another goroutine.
type Proc struct {
	id   int
	name string
	sim  *Sim
	fn   func(*Proc) // the process body, dropped when it returns
	// resume receives the baton. Buffered so the holder hands off without
	// waiting for this process's goroutine to reach its receive.
	resume chan struct{}
	slot   int // index in sim.live
	// waitOp ("send" or "recv") and waitChan name the channel operation
	// the process last paused in. Only a deadlock report reads them, and
	// every process alive at a deadlock is paused in one: a sleeper holds
	// a timer, and a deadlock is reported only when none is pending.
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
// The returned handle is valid until the process finishes: a later Spawn
// may reuse its record.
func (s *Sim) Spawn(name string, fn func(*Proc)) *Proc {
	if s.halted {
		panic("vtime: Spawn after Run returned")
	}
	var p *Proc
	if n := len(s.free); n > 0 {
		p, s.free[n-1], s.free = s.free[n-1], nil, s.free[:n-1]
		p.waitOp, p.waitChan = "", ""
	} else {
		p = &Proc{sim: s, resume: make(chan struct{}, 1)}
	}
	p.id, p.name, p.fn, p.slot = s.spawned, name, fn, len(s.live)
	s.spawned++
	s.live = append(s.live, p)
	go p.body()
	s.makeReady(p)
	return p
}

// body is the process's goroutine: wait for the baton, run, retire.
func (p *Proc) body() {
	<-p.resume
	p.fn(p)
	p.sim.finish(p)
}

// finish retires p, the baton holder, and passes the baton on. The live
// set forgets p (the last entry takes its slot) and the record goes on
// the free list; passing the baton is the goroutine's final hand-off,
// after which it touches neither the record nor the kernel, so whoever
// holds the baton next may reuse the record.
func (s *Sim) finish(p *Proc) {
	last := len(s.live) - 1
	s.live[p.slot] = s.live[last]
	s.live[p.slot].slot = p.slot
	s.live[last] = nil
	s.live = s.live[:last]
	p.fn = nil
	if s.free == nil { // room for every process alive at once, in one go
		s.free = make([]*Proc, 0, cap(s.live))
	}
	s.free = append(s.free, p)
	s.pass(nil)
}

// timer is a pending wake-up for a sleeping process.
type timer struct {
	at   time.Duration
	seq  int
	proc *Proc
}

func (t timer) before(u timer) bool {
	if t.at != u.at {
		return t.at < u.at
	}
	return t.seq < u.seq
}

// timerHeap is a binary min-heap of timers ordered by (at, seq). seq is
// unique, so the pop order is a total order no heap layout can change.
type timerHeap []timer

func (h *timerHeap) push(t timer) {
	a := append(*h, t)
	i := len(a) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !t.before(a[parent]) {
			break
		}
		a[i] = a[parent]
		i = parent
	}
	a[i] = t
	*h = a
}

// pop removes and returns the earliest timer. The heap must not be empty.
func (h *timerHeap) pop() timer {
	a := *h
	top := a[0]
	last := len(a) - 1
	t := a[last]
	a[last] = timer{}
	a = a[:last]
	*h = a
	if last == 0 {
		return top
	}
	i := 0
	for {
		child := 2*i + 1
		if child >= last {
			break
		}
		if child+1 < last && a[child+1].before(a[child]) {
			child++
		}
		if !a[child].before(t) {
			break
		}
		a[i] = a[child]
		i = child
	}
	a[i] = t
	return top
}

// Sleep suspends the process for d of virtual time. Negative durations are
// treated as zero (the process yields but resumes at the same timestamp,
// after currently runnable processes).
func (p *Proc) Sleep(d time.Duration) {
	if d < 0 {
		d = 0
	}
	s := p.sim
	s.seq++
	s.timers.push(timer{at: s.now + d, seq: s.seq, proc: p})
	p.pause()
}

// Yield gives other runnable processes a chance to run at the current
// virtual time. Equivalent to Sleep(0).
func (p *Proc) Yield() { p.Sleep(0) }

// pause gives the baton up and returns once p holds it again. The caller
// has already queued p somewhere that will make it ready: a timer or a
// channel's wait queue.
func (p *Proc) pause() {
	if !p.sim.pass(p) {
		<-p.resume
	}
}

// pauseOn is pause for a process that blocks in op on the named channel.
func (p *Proc) pauseOn(op, channel string) {
	p.waitOp, p.waitChan = op, channel
	p.pause()
}

// makeReady appends p to the runnable queue.
func (s *Sim) makeReady(p *Proc) {
	s.ready.push(p)
}

// next picks the process that runs next: the head of the ready queue, or
// — when that is empty — the first of the processes whose timers are due
// at the earliest pending instant, to which the clock jumps. It returns
// nil when there is neither.
func (s *Sim) next() *Proc {
	if s.ready.len() == 0 {
		if len(s.timers) == 0 {
			return nil
		}
		at := s.timers[0].at
		if at < s.now {
			panic("vtime: time went backwards")
		}
		s.now = at
		// Wake every timer due at this instant, in registration order.
		for len(s.timers) > 0 && s.timers[0].at == at {
			s.makeReady(s.timers.pop().proc)
		}
	}
	return s.ready.pop()
}

// pass moves the baton from its holder to the next process. from is the
// holder when it stays alive (it has blocked) and nil when it does not
// (a finished process, or Run before the first process starts). pass
// reports whether from itself is next, in which case the baton never
// moved; otherwise the caller must not touch kernel state again until it
// is resumed. With nothing left to run, pass signals Run instead.
func (s *Sim) pass(from *Proc) bool {
	switch to := s.next(); {
	case to == nil:
		s.idle <- struct{}{}
	case to == from:
		return true
	default:
		to.resume <- struct{}{}
	}
	return false
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
	s.pass(nil)
	<-s.idle
	// Nothing is runnable and no timer is pending: done or deadlocked.
	if len(s.live) == 0 {
		return nil
	}
	stuck := make([]string, len(s.live))
	for i, p := range s.live {
		stuck[i] = fmt.Sprintf("%s: %s on %s", p.name, p.waitOp, p.waitChan)
	}
	sort.Strings(stuck)
	return &DeadlockError{At: s.now, Blocked: stuck}
}

// Reset readies a Sim whose Run returned nil for another run, as if it
// were new: the clock, the process ids and the timer sequence start from
// zero. The queues and the finished processes' records keep their
// memory; the Chans bound to the Sim are emptied by their owners
// (Chan.Reset). Reset panics during a run and after a run that left
// processes blocked.
func (s *Sim) Reset() {
	if s.running || len(s.live) > 0 {
		panic("vtime: Reset of a Sim that did not finish cleanly")
	}
	s.now, s.spawned, s.seq, s.halted = 0, 0, 0, false
}
