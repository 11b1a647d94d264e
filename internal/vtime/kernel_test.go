package vtime

import (
	"fmt"
	"runtime"
	"testing"
	"time"
)

// runEventScript drives one mixed script through a fresh kernel and
// returns its (now, proc, event) log: sleeps with equal deadlines, buffered
// and unbuffered sends, TrySend/TryRecv, a spawn from a running process,
// two receivers parked on one channel, and a tail in which the sleeper is
// the only runnable process (it resumes itself).
func runEventScript() ([]string, error) {
	s := NewSim()
	var log []string
	ev := func(p *Proc, format string, args ...any) {
		log = append(log, fmt.Sprintf("%v %s %s", p.Now(), p.Name(), fmt.Sprintf(format, args...)))
	}
	unbuf := NewChan[int](s, "unbuf", 0)
	buf := NewChan[int](s, "buf", 2)
	fan := NewChan[string](s, "fan", 0)
	done := NewChan[string](s, "done", 8)

	// Three sleepers share every deadline: ties wake in registration order.
	for i := 0; i < 3; i++ {
		i := i
		s.Spawn(fmt.Sprintf("tick%d", i), func(p *Proc) {
			for j := 1; j <= 3; j++ {
				p.Sleep(2 * time.Second)
				ev(p, "woke %d", j)
				if j == 2 {
					ev(p, "trysend buf %d -> %v", 10*i, buf.TrySend(p, 10*i))
				}
			}
			done.Send(p, p.Name())
		})
	}
	s.Spawn("producer", func(p *Proc) {
		for i := 0; i < 4; i++ {
			ev(p, "send unbuf %d", i)
			unbuf.Send(p, i)
			ev(p, "sent unbuf %d", i)
			p.Sleep(time.Second)
		}
		for i := 0; i < 5; i++ {
			buf.Send(p, 100+i) // blocks once the buffer fills
			ev(p, "sent buf %d len %d", 100+i, buf.Len())
		}
		done.Send(p, p.Name())
	})
	s.Spawn("consumer", func(p *Proc) {
		if v, ok := unbuf.TryRecv(p); ok {
			ev(p, "tryrecv unbuf took a parked sender's %d", v)
		} else {
			ev(p, "tryrecv unbuf empty")
		}
		for i := 0; i < 3; i++ {
			ev(p, "recv unbuf -> %d", unbuf.Recv(p))
		}
		p.Sleep(3 * time.Second)
		s.Spawn("child", func(c *Proc) {
			ev(c, "started id %d", c.ID())
			c.Yield()
			ev(c, "yielded")
			for i := 0; i < 2; i++ {
				fan.Send(c, fmt.Sprintf("f%d", i))
				ev(c, "sent fan %d", i)
			}
			done.Send(c, c.Name())
		})
		ev(p, "spawned child")
		for {
			v, ok := buf.TryRecv(p)
			if !ok {
				break
			}
			ev(p, "tryrecv buf -> %d", v)
		}
		p.Sleep(5 * time.Second)
		for buf.Len() > 0 {
			ev(p, "recv buf -> %d", buf.Recv(p))
		}
		done.Send(p, p.Name())
	})
	// Two receivers park on one unbuffered channel before any send.
	for i := 0; i < 2; i++ {
		s.Spawn(fmt.Sprintf("fan%d", i), func(p *Proc) {
			ev(p, "recv fan -> %s", fan.Recv(p))
			done.Send(p, p.Name())
		})
	}
	s.Spawn("closer", func(p *Proc) {
		for i := 0; i < 8; i++ {
			ev(p, "done %s", done.Recv(p))
		}
		// Everyone else has finished: each Sleep finds the ready queue
		// empty and its own timer the earliest.
		for i := 0; i < 3; i++ {
			p.Sleep(time.Second)
			ev(p, "alone %d", i)
		}
	})
	err := s.Run()
	return log, err
}

// eventScriptGolden is runEventScript's log on the scheduler-goroutine
// kernel this one replaced (commit f0c9095): the hand-off kernel must
// produce the same events at the same virtual times in the same order.
var eventScriptGolden = []string{
	"0s producer send unbuf 0",
	"0s consumer tryrecv unbuf took a parked sender's 0",
	"0s producer sent unbuf 0",
	"1s producer send unbuf 1",
	"1s producer sent unbuf 1",
	"1s consumer recv unbuf -> 1",
	"2s tick0 woke 1",
	"2s tick1 woke 1",
	"2s tick2 woke 1",
	"2s producer send unbuf 2",
	"2s producer sent unbuf 2",
	"2s consumer recv unbuf -> 2",
	"3s producer send unbuf 3",
	"3s producer sent unbuf 3",
	"3s consumer recv unbuf -> 3",
	"4s tick0 woke 2",
	"4s tick0 trysend buf 0 -> true",
	"4s tick1 woke 2",
	"4s tick1 trysend buf 10 -> true",
	"4s tick2 woke 2",
	"4s tick2 trysend buf 20 -> false",
	"6s consumer spawned child",
	"6s consumer tryrecv buf -> 0",
	"6s consumer tryrecv buf -> 10",
	"6s consumer tryrecv buf -> 100",
	"6s tick0 woke 3",
	"6s tick1 woke 3",
	"6s tick2 woke 3",
	"6s child started id 8",
	"6s producer sent buf 100 len 0",
	"6s producer sent buf 101 len 1",
	"6s producer sent buf 102 len 2",
	"6s closer done tick0",
	"6s closer done tick1",
	"6s closer done tick2",
	"6s child yielded",
	"6s child sent fan 0",
	"6s child sent fan 1",
	"6s fan0 recv fan -> f0",
	"6s fan1 recv fan -> f1",
	"6s closer done child",
	"6s closer done fan0",
	"6s closer done fan1",
	"11s consumer recv buf -> 101",
	"11s consumer recv buf -> 102",
	"11s consumer recv buf -> 103",
	"11s producer sent buf 103 len 0",
	"11s producer sent buf 104 len 1",
	"11s closer done consumer",
	"11s closer done producer",
	"12s closer alone 0",
	"13s closer alone 1",
	"14s closer alone 2",
}

func TestEventOrderSameAtGOMAXPROCS1And2(t *testing.T) {
	at := func(log []string, i int) string {
		if i < len(log) {
			return log[i]
		}
		return "<end of log>"
	}
	for _, procs := range []int{1, 2} {
		prev := runtime.GOMAXPROCS(procs)
		got, err := runEventScript()
		runtime.GOMAXPROCS(prev)
		if err != nil {
			t.Fatalf("GOMAXPROCS %d: %v", procs, err)
		}
		for i := 0; i < max(len(got), len(eventScriptGolden)); i++ {
			if at(got, i) != at(eventScriptGolden, i) {
				t.Fatalf("GOMAXPROCS %d: event %d is %q, the golden log has %q", procs, i, at(got, i), at(eventScriptGolden, i))
			}
		}
	}
}

// TestSpawnFinishCyclesStayFlat: a kernel that keeps running forgets the
// processes that finished. One long-lived process spawns 10^5 short ones,
// a few at a time; the live set never exceeds the handful alive at once,
// the heap in use does not grow between the halfway mark and the end, and
// nothing the kernel holds afterwards points at a Proc.
func TestSpawnFinishCyclesStayFlat(t *testing.T) {
	const cycles, batch = 100_000, 4
	heapInUse := func() uint64 {
		runtime.GC()
		var m runtime.MemStats
		runtime.ReadMemStats(&m)
		return m.HeapAlloc
	}
	s := NewSim()
	ack := NewChan[int](s, "ack", 0)
	maxLive, finished := 0, 0
	var halfway uint64
	s.Spawn("parent", func(p *Proc) {
		for c := 0; c < cycles; c += batch {
			for i := 0; i < batch; i++ {
				s.Spawn("child", func(q *Proc) {
					q.Sleep(time.Duration(q.ID()%3) * time.Millisecond)
					ack.Send(q, q.ID())
				})
			}
			for i := 0; i < batch; i++ {
				ack.Recv(p)
				finished++
			}
			// The last child to be received from may still be between its
			// Send returning and its function returning.
			p.Yield()
			maxLive = max(maxLive, len(s.live))
			if c == cycles/2 {
				halfway = heapInUse()
			}
		}
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if finished != cycles || s.spawned != cycles+1 {
		t.Fatalf("%d children finished of %d spawned, want %d", finished, s.spawned-1, cycles)
	}
	if maxLive > 1 {
		t.Errorf("live set reached %d between batches, want only the parent", maxLive)
	}
	if end := heapInUse(); end > halfway+1<<20 {
		t.Errorf("heap in use grew from %d B at %d cycles to %d B at %d", halfway, cycles/2, end, cycles)
	}
	if len(s.live) != 0 || s.ready.len() != 0 || len(s.timers) != 0 {
		t.Fatalf("after Run: %d live, %d ready, %d timers", len(s.live), s.ready.len(), len(s.timers))
	}
	for _, p := range s.live[:cap(s.live)] {
		if p != nil {
			t.Fatalf("live set's backing array still holds %s", p.name)
		}
	}
	for _, p := range s.ready.buf {
		if p != nil {
			t.Fatalf("ready queue's backing array still holds %s", p.name)
		}
	}
	for _, tm := range s.timers[:cap(s.timers)] {
		if tm.proc != nil {
			t.Fatalf("timer heap's backing array still holds %s", tm.proc.name)
		}
	}
}

// TestDrainedChanHoldsNothing: once everything sent has been received, no
// queue of the channel — buffer, parked senders, parked receivers, handed
// values — keeps a sent pointer (or a process) reachable from its backing
// array. Every path is driven: buffered values, senders parked on a full
// buffer and promoted into it, an unbuffered rendezvous with a parked
// sender, and values handed to parked receivers.
func TestDrainedChanHoldsNothing(t *testing.T) {
	s := NewSim()
	buffered := NewChan[*int](s, "buffered", 3)
	unbuffered := NewChan[*int](s, "unbuffered", 0)
	const n = 20
	for _, ch := range []*Chan[*int]{buffered, unbuffered} {
		ch := ch
		// Senders first: they fill the buffer and park behind it.
		for i := 0; i < n; i++ {
			s.Spawn("sender", func(p *Proc) { ch.Send(p, new(int)) })
		}
		s.Spawn("receiver", func(p *Proc) {
			for i := 0; i < n; i++ {
				if ch.Recv(p) == nil {
					t.Error("received nil")
				}
			}
		})
		// Then receivers first: they park and are handed their values.
		for i := 0; i < n; i++ {
			s.Spawn("late-receiver", func(p *Proc) {
				p.Sleep(time.Second)
				if ch.Recv(p) == nil {
					t.Error("received nil")
				}
			})
		}
		s.Spawn("late-sender", func(p *Proc) {
			p.Sleep(2 * time.Second)
			for i := 0; i < n; i++ {
				ch.Send(p, new(int))
			}
		})
	}
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	for _, ch := range []*Chan[*int]{buffered, unbuffered} {
		if ch.buf.len()+ch.sendq.len()+ch.recvq.len()+ch.handed.len() != 0 {
			t.Fatalf("%s: not drained", ch.name)
		}
		if len(ch.handed.buf) == 0 || len(ch.sendq.buf) == 0 {
			t.Fatalf("%s: the script never parked a sender and a receiver", ch.name)
		}
		for _, v := range ch.buf.buf {
			if v != nil {
				t.Errorf("%s: buffer's backing array keeps a delivered value", ch.name)
			}
		}
		for _, v := range ch.handed.buf {
			if v != nil {
				t.Errorf("%s: hand-off queue's backing array keeps a delivered value", ch.name)
			}
		}
		for _, w := range ch.sendq.buf {
			if w.proc != nil || w.val != nil {
				t.Errorf("%s: sender queue's backing array keeps a sender or its value", ch.name)
			}
		}
		for _, p := range ch.recvq.buf {
			if p != nil {
				t.Errorf("%s: receiver queue's backing array keeps a process", ch.name)
			}
		}
	}
}

// resetScript is a run for TestResetRunsAsNew on s: ticking sleepers, a
// process spawned by a running one, a rendezvous on unbuf, and a value
// sent on buf that nobody receives. It logs (now, id, name, event).
func resetScript(s *Sim, unbuf, buf *Chan[int]) []string {
	var log []string
	ev := func(p *Proc, format string, args ...any) {
		log = append(log, fmt.Sprintf("%v %d %s %s", p.Now(), p.ID(), p.Name(), fmt.Sprintf(format, args...)))
	}
	for i := range 2 {
		s.Spawn(fmt.Sprintf("tick%d", i), func(p *Proc) {
			for j := range 3 {
				p.Sleep(time.Duration(i+1) * time.Second)
				ev(p, "tick %d", j)
			}
		})
	}
	s.Spawn("parent", func(p *Proc) {
		s.Spawn("child", func(q *Proc) {
			q.Sleep(time.Second)
			unbuf.Send(q, q.ID())
			ev(q, "sent")
		})
		if v, ok := buf.TryRecv(p); ok {
			ev(p, "stale value %d", v)
		}
		ev(p, "got %d", unbuf.Recv(p))
		buf.Send(p, 7) // left for nobody
	})
	if err := s.Run(); err != nil {
		log = append(log, err.Error())
	}
	return append(log, fmt.Sprintf("end %v, %d spawned", s.Now(), s.spawned))
}

// TestResetRunsAsNew: a Sim Reset after a clean run, its channels Reset,
// runs a script as a new Sim does — clock, ids, names, event order — and
// reuses its finished processes' records instead of making new ones; a
// value left in a channel does not survive Chan.Reset.
func TestResetRunsAsNew(t *testing.T) {
	fresh := func() []string {
		s := NewSim()
		return resetScript(s, NewChan[int](s, "unbuf", 0), NewChan[int](s, "buf", 1))
	}
	want := fresh()
	s := NewSim()
	unbuf, buf := NewChan[int](s, "unbuf", 0), NewChan[int](s, "buf", 1)
	var records map[*Proc]bool
	for run := 1; run <= 3; run++ {
		if run > 1 {
			s.Reset()
			unbuf.Reset()
			buf.Reset()
		}
		got := resetScript(s, unbuf, buf)
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("run %d differs from a new Sim's:\n got %v\nwant %v", run, got, want)
		}
		seen := make(map[*Proc]bool)
		for _, p := range s.free {
			seen[p] = true
		}
		if records != nil && fmt.Sprint(seen) != fmt.Sprint(records) {
			t.Fatalf("run %d made new process records: %d now, %d after run 1", run, len(seen), len(records))
		}
		records = seen
	}
	if len(records) == 0 || len(records) > 4 {
		t.Fatalf("%d records for 4 processes a run", len(records))
	}
}

// TestResetRefusesUncleanSim: a Sim whose Run deadlocked keeps its blocked
// processes, and Reset refuses it.
func TestResetRefusesUncleanSim(t *testing.T) {
	s := NewSim()
	ch := NewChan[int](s, "never", 0)
	s.Spawn("stuck", func(p *Proc) { ch.Recv(p) })
	if err := s.Run(); err == nil {
		t.Fatal("want a deadlock")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Reset of a deadlocked Sim did not panic")
		}
	}()
	s.Reset()
}

// goid returns the calling goroutine's id, read from its stack header.
func goid() string {
	var buf [64]byte
	b := buf[:runtime.Stack(buf[:], false)]
	b = b[len("goroutine "):]
	for i, c := range b {
		if c == ' ' {
			return string(b[:i])
		}
	}
	return string(b)
}

// quietGoroutines returns the goroutine count once it has held for 50 ms, so
// that goroutines of earlier runs still on their way out are not counted.
func quietGoroutines() int {
	for n := runtime.NumGoroutine(); ; {
		time.Sleep(50 * time.Millisecond)
		m := runtime.NumGoroutine()
		if m == n {
			return n
		}
		n = m
	}
}

// settleTo waits for the goroutine count to reach want exactly, failing t
// after five seconds.
func settleTo(t *testing.T, want int, what string) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() != want; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("%s: %d goroutines, want %d", what, runtime.NumGoroutine(), want)
		}
	}
}

// TestKernelParksGoroutinesUntilStop: a kernel runs, is Reset and runs
// again, each run reading as a new Sim's; every process after the first
// run runs on a goroutine the first run started — none is started after
// it, none exits — and one goroutine stays parked per process record.
// Stop brings the goroutine count back to where it was before the kernel,
// and the kernel still runs after Stop, on goroutines a second Stop ends.
func TestKernelParksGoroutinesUntilStop(t *testing.T) {
	fresh := NewSim()
	want := resetScript(fresh, NewChan[int](fresh, "unbuf", 0), NewChan[int](fresh, "buf", 1))
	baseline := quietGoroutines()
	s := NewKernel()
	unbuf, buf := NewChan[int](s, "unbuf", 0), NewChan[int](s, "buf", 1)
	var started map[string]bool
	for run := 1; run <= 5; run++ {
		if run > 1 {
			s.Reset()
			unbuf.Reset()
			buf.Reset()
		}
		if got := resetScript(s, unbuf, buf); fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("run %d differs from a new Sim's:\n got %v\nwant %v", run, got, want)
		}
		// A second script on the same kernel: its processes name the
		// goroutines they run on.
		s.Reset()
		used := make(map[string]bool)
		for i := range 4 {
			s.Spawn(fmt.Sprint("g", i), func(p *Proc) {
				p.Sleep(time.Duration(i) * time.Second)
				used[goid()] = true
			})
		}
		if err := s.Run(); err != nil {
			t.Fatal(err)
		}
		if len(used) != 4 {
			t.Fatalf("run %d: 4 live processes shared %d goroutines", run, len(used))
		}
		if started == nil {
			started = used
		}
		for id := range used {
			if !started[id] {
				t.Fatalf("run %d ran a process on goroutine %s, which the first run did not start", run, id)
			}
		}
		settleTo(t, baseline+len(s.free), fmt.Sprintf("run %d, %d records", run, len(s.free)))
	}
	s.Stop()
	settleTo(t, baseline, "after Stop")
	s.Reset()
	unbuf.Reset()
	buf.Reset()
	if got := resetScript(s, unbuf, buf); fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("the run after Stop differs from a new Sim's:\n got %v\nwant %v", got, want)
	}
	settleTo(t, baseline+len(s.free), "the run after Stop")
	s.Stop()
	settleTo(t, baseline, "after the second Stop")
}

// TestSimGoroutinesExitWithTheirProcesses: a Sim made with NewSim keeps no
// goroutine once Run returns, also after Reset and a second run, and its
// Stop is harmless.
func TestSimGoroutinesExitWithTheirProcesses(t *testing.T) {
	baseline := quietGoroutines()
	s := NewSim()
	unbuf, buf := NewChan[int](s, "unbuf", 0), NewChan[int](s, "buf", 1)
	resetScript(s, unbuf, buf)
	settleTo(t, baseline, "after Run")
	s.Reset()
	unbuf.Reset()
	buf.Reset()
	resetScript(s, unbuf, buf)
	settleTo(t, baseline, "after a second Run")
	s.Stop()
	settleTo(t, baseline, "after Stop")
}

// TestKernelStopAfterDeadlock: Stop after a deadlocked run ends the
// goroutines of the processes that finished and leaves the blocked one's
// parked, and the kernel still refuses Reset.
func TestKernelStopAfterDeadlock(t *testing.T) {
	baseline := quietGoroutines()
	s := NewKernel()
	ch := NewChan[int](s, "never", 0)
	for i := range 3 {
		s.Spawn(fmt.Sprint("done", i), func(p *Proc) { p.Sleep(time.Second) })
	}
	s.Spawn("stuck", func(p *Proc) { ch.Recv(p) })
	if err := s.Run(); err == nil {
		t.Fatal("want a deadlock")
	}
	settleTo(t, baseline+4, "after the deadlock")
	s.Stop()
	settleTo(t, baseline+1, "after Stop: only the blocked process's goroutine")
	defer func() {
		if recover() == nil {
			t.Fatal("Reset of a deadlocked kernel did not panic")
		}
	}()
	s.Reset()
}
