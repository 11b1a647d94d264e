package vtime

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
	"time"
)

func TestSleepAdvancesClock(t *testing.T) {
	s := NewSim()
	var woke time.Duration
	s.Spawn("sleeper", func(p *Proc) {
		p.Sleep(5 * time.Second)
		woke = p.Now()
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if woke != 5*time.Second {
		t.Fatalf("woke at %v, want 5s", woke)
	}
	if s.Now() != 5*time.Second {
		t.Fatalf("final clock %v, want 5s", s.Now())
	}
}

func TestZeroAndNegativeSleep(t *testing.T) {
	s := NewSim()
	s.Spawn("a", func(p *Proc) {
		p.Sleep(0)
		p.Sleep(-3 * time.Second)
		if p.Now() != 0 {
			t.Errorf("clock moved on zero sleep: %v", p.Now())
		}
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestTimersFireInOrder(t *testing.T) {
	s := NewSim()
	var order []string
	for _, tc := range []struct {
		name string
		d    time.Duration
	}{{"c", 30 * time.Second}, {"a", 10 * time.Second}, {"b", 20 * time.Second}} {
		tc := tc
		s.Spawn(tc.name, func(p *Proc) {
			p.Sleep(tc.d)
			order = append(order, tc.name)
		})
	}
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if got := fmt.Sprint(order); got != "[a b c]" {
		t.Fatalf("wake order %v", got)
	}
}

func TestSimultaneousTimersFIFO(t *testing.T) {
	s := NewSim()
	var order []int
	for i := 0; i < 8; i++ {
		i := i
		s.Spawn(fmt.Sprintf("p%d", i), func(p *Proc) {
			p.Sleep(time.Second)
			order = append(order, i)
		})
	}
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	for i, v := range order {
		if v != i {
			t.Fatalf("tie-broken order %v, want ascending", order)
		}
	}
}

func TestUnbufferedChannelRendezvous(t *testing.T) {
	s := NewSim()
	ch := NewChan[int](s, "ch", 0)
	var got int
	var recvAt time.Duration
	s.Spawn("sender", func(p *Proc) {
		p.Sleep(3 * time.Second)
		ch.Send(p, 42)
	})
	s.Spawn("receiver", func(p *Proc) {
		got = ch.Recv(p)
		recvAt = p.Now()
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if got != 42 || recvAt != 3*time.Second {
		t.Fatalf("got %d at %v", got, recvAt)
	}
}

func TestBufferedChannelDoesNotBlockSender(t *testing.T) {
	s := NewSim()
	ch := NewChan[int](s, "ch", 2)
	var sendDone time.Duration
	s.Spawn("sender", func(p *Proc) {
		ch.Send(p, 1)
		ch.Send(p, 2)
		sendDone = p.Now()
	})
	s.Spawn("receiver", func(p *Proc) {
		p.Sleep(10 * time.Second)
		if v := ch.Recv(p); v != 1 {
			t.Errorf("first recv %d", v)
		}
		if v := ch.Recv(p); v != 2 {
			t.Errorf("second recv %d", v)
		}
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if sendDone != 0 {
		t.Fatalf("buffered send blocked until %v", sendDone)
	}
}

func TestSendBlocksWhenBufferFull(t *testing.T) {
	s := NewSim()
	ch := NewChan[int](s, "ch", 1)
	var thirdSentAt time.Duration
	s.Spawn("sender", func(p *Proc) {
		ch.Send(p, 1)
		ch.Send(p, 2) // blocks: buffer full, no receiver yet
		thirdSentAt = p.Now()
	})
	s.Spawn("receiver", func(p *Proc) {
		p.Sleep(7 * time.Second)
		ch.Recv(p)
		ch.Recv(p)
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if thirdSentAt != 7*time.Second {
		t.Fatalf("blocked send completed at %v, want 7s", thirdSentAt)
	}
}

func TestTryRecvAndTrySend(t *testing.T) {
	s := NewSim()
	ch := NewChan[string](s, "ch", 1)
	s.Spawn("p", func(p *Proc) {
		if _, ok := ch.TryRecv(p); ok {
			t.Error("TryRecv on empty channel succeeded")
		}
		if !ch.TrySend(p, "x") {
			t.Error("TrySend with buffer space failed")
		}
		if ch.TrySend(p, "y") {
			t.Error("TrySend on full channel succeeded")
		}
		v, ok := ch.TryRecv(p)
		if !ok || v != "x" {
			t.Errorf("TryRecv got %q, %v", v, ok)
		}
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestBlockedSenderPromotedToBuffer(t *testing.T) {
	s := NewSim()
	ch := NewChan[int](s, "ch", 1)
	var got []int
	s.Spawn("sender", func(p *Proc) {
		ch.Send(p, 1)
		ch.Send(p, 2) // blocks
	})
	s.Spawn("receiver", func(p *Proc) {
		p.Sleep(time.Second)
		got = append(got, ch.Recv(p))
		p.Sleep(time.Second)
		got = append(got, ch.Recv(p))
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(got) != "[1 2]" {
		t.Fatalf("got %v", got)
	}
}

func TestDeadlockDetection(t *testing.T) {
	s := NewSim()
	ch := NewChan[int](s, "stuck-ch", 0)
	out := NewChan[int](s, "full-ch", 1)
	s.Spawn("stuck", func(p *Proc) {
		ch.Recv(p)
	})
	s.Spawn("sender", func(p *Proc) {
		p.Sleep(3 * time.Second)
		out.Send(p, 1)
		out.Send(p, 2)
	})
	err := s.Run()
	de, ok := err.(*DeadlockError)
	if !ok {
		t.Fatalf("expected DeadlockError, got %v", err)
	}
	want := []string{"sender: send on full-ch", "stuck: recv on stuck-ch"}
	if !reflect.DeepEqual(de.Blocked, want) {
		t.Fatalf("blocked list %q, want %q", de.Blocked, want)
	}
	if got, want := err.Error(), "vtime: deadlock at 3s; blocked: [sender: send on full-ch stuck: recv on stuck-ch]"; got != want {
		t.Fatalf("message %q, want %q", got, want)
	}
}

// TestBlockingCallsDoNotFormat: a blocking Sleep, Send or Recv builds no
// diagnostic and, once the timer heap and the channel queues have grown to
// their working size, allocates nothing at all: the timer is a typed heap
// entry and a parked receiver is handed its value through the channel.
func TestBlockingCallsDoNotFormat(t *testing.T) {
	allocs := func(rounds int) float64 {
		return testing.AllocsPerRun(5, func() {
			s := NewSim()
			ping := NewChan[int](s, "ping", 0)
			pong := NewChan[int](s, "pong", 0)
			s.Spawn("a", func(p *Proc) {
				for i := 0; i < rounds; i++ {
					ping.Send(p, i) // blocks: b is asleep
					pong.Recv(p)    // blocks: b has not answered yet
				}
			})
			s.Spawn("b", func(p *Proc) {
				for i := 0; i < rounds; i++ {
					p.Sleep(time.Second)
					ping.Recv(p)
					pong.Send(p, i)
				}
			})
			if err := s.Run(); err != nil {
				t.Error(err)
			}
		})
	}
	const extra = 1000
	if perRound := (allocs(100+extra) - allocs(100)) / extra; perRound > 0.01 {
		t.Fatalf("%.2f allocations per round of one Sleep, one blocking Send and one blocking Recv, want 0", perRound)
	}
}

func TestSpawnFromRunningProc(t *testing.T) {
	s := NewSim()
	var childRanAt time.Duration = -1
	s.Spawn("parent", func(p *Proc) {
		p.Sleep(5 * time.Second)
		s.Spawn("child", func(c *Proc) {
			childRanAt = c.Now()
		})
		p.Sleep(time.Second)
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if childRanAt != 5*time.Second {
		t.Fatalf("child ran at %v", childRanAt)
	}
}

func TestYieldInterleavesAtSameTime(t *testing.T) {
	s := NewSim()
	var log []string
	s.Spawn("a", func(p *Proc) {
		log = append(log, "a1")
		p.Yield()
		log = append(log, "a2")
	})
	s.Spawn("b", func(p *Proc) {
		log = append(log, "b1")
		p.Yield()
		log = append(log, "b2")
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(log) != "[a1 b1 a2 b2]" {
		t.Fatalf("log %v", log)
	}
}

// TestPingPong exercises repeated rendezvous between two processes.
func TestPingPong(t *testing.T) {
	s := NewSim()
	ping := NewChan[int](s, "ping", 0)
	pong := NewChan[int](s, "pong", 0)
	const rounds = 100
	s.Spawn("ping", func(p *Proc) {
		for i := 0; i < rounds; i++ {
			ping.Send(p, i)
			if v := pong.Recv(p); v != i*2 {
				t.Errorf("pong %d, want %d", v, i*2)
				return
			}
		}
	})
	s.Spawn("pong", func(p *Proc) {
		for i := 0; i < rounds; i++ {
			v := ping.Recv(p)
			p.Sleep(time.Millisecond)
			pong.Send(p, v*2)
		}
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if s.Now() != rounds*time.Millisecond {
		t.Fatalf("final time %v", s.Now())
	}
}

// runRandomWorkload executes a randomized mesh of sleepers and channel
// hops and returns a trace fingerprint. Used to check determinism.
func runRandomWorkload(seed int64) string {
	rng := rand.New(rand.NewSource(seed))
	s := NewSim()
	ch := NewChan[int](s, "bus", 3)
	var log []string
	nprocs := 3 + rng.Intn(4)
	for i := 0; i < nprocs; i++ {
		i := i
		delays := make([]time.Duration, 5)
		for j := range delays {
			delays[j] = time.Duration(rng.Intn(1000)) * time.Millisecond
		}
		s.Spawn(fmt.Sprintf("w%d", i), func(p *Proc) {
			for _, d := range delays {
				p.Sleep(d)
				ch.Send(p, i)
				log = append(log, fmt.Sprintf("%d@%v", i, p.Now()))
			}
		})
	}
	s.Spawn("drain", func(p *Proc) {
		for i := 0; i < nprocs*5; i++ {
			v := ch.Recv(p)
			log = append(log, fmt.Sprintf("r%d@%v", v, p.Now()))
		}
	})
	if err := s.Run(); err != nil {
		panic(err)
	}
	return fmt.Sprint(log, s.Now())
}

func TestDeterminism(t *testing.T) {
	f := func(seed int64) bool {
		return runRandomWorkload(seed) == runRandomWorkload(seed)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func TestClockMonotonic(t *testing.T) {
	s := NewSim()
	var last time.Duration
	for i := 0; i < 10; i++ {
		s.Spawn(fmt.Sprintf("p%d", i), func(p *Proc) {
			for j := 0; j < 20; j++ {
				p.Sleep(time.Duration(j%7) * time.Second)
				if p.Now() < last {
					t.Errorf("clock went backwards: %v < %v", p.Now(), last)
				}
				last = p.Now()
			}
		})
	}
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestRunTwicePanics(t *testing.T) {
	s := NewSim()
	s.Spawn("p", func(p *Proc) {})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("second Run did not panic")
		}
	}()
	_ = s.Run()
}
