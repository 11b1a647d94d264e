package vtime

import (
	"fmt"
	"testing"
	"time"
)

// BenchmarkContextSwitch measures the kernel's proc handoff cost: two
// processes ping-ponging over unbuffered channels.
func BenchmarkContextSwitch(b *testing.B) {
	sim := NewSim()
	ping := NewChan[int](sim, "ping", 0)
	pong := NewChan[int](sim, "pong", 0)
	n := b.N
	sim.Spawn("a", func(p *Proc) {
		for i := 0; i < n; i++ {
			ping.Send(p, i)
			pong.Recv(p)
		}
	})
	sim.Spawn("b", func(p *Proc) {
		for i := 0; i < n; i++ {
			ping.Recv(p)
			pong.Send(p, i)
		}
	})
	b.ResetTimer()
	if err := sim.Run(); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkTimerHeap measures timer scheduling with many sleepers.
func BenchmarkTimerHeap(b *testing.B) {
	sim := NewSim()
	const procs = 64
	per := b.N/procs + 1
	for i := 0; i < procs; i++ {
		i := i
		sim.Spawn(fmt.Sprint("p", i), func(p *Proc) {
			for j := 0; j < per; j++ {
				p.Sleep(time.Duration((i*31+j*17)%1000) * time.Millisecond)
			}
		})
	}
	b.ResetTimer()
	if err := sim.Run(); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkChanDeepQueue measures one Recv from a channel holding 65 536
// queued values next to one from a channel holding a single value (each
// Recv is matched by a Send, so the depth holds): the per-receive cost
// must not depend on how much is queued behind the head.
func BenchmarkChanDeepQueue(b *testing.B) {
	for _, depth := range []int{1, 1 << 16} {
		b.Run(fmt.Sprint("depth=", depth), func(b *testing.B) {
			sim := NewSim()
			ch := NewChan[int](sim, "deep", depth)
			n := b.N
			sim.Spawn("p", func(p *Proc) {
				for i := 0; i < depth; i++ {
					ch.Send(p, i)
				}
				b.ResetTimer()
				for i := 0; i < n; i++ {
					ch.Recv(p)
					ch.Send(p, i)
				}
			})
			if err := sim.Run(); err != nil {
				b.Fatal(err)
			}
		})
	}
}
