package csd

import (
	"reflect"
	"testing"
	"time"

	"repro/internal/faults"
	"repro/internal/segment"
	"repro/internal/vtime"
)

// TestPendingAnsweredInArrivalOrder: the device queues pending requests
// per group, but a crash and a scheduler fail-stop still answer them
// oldest first across the groups — the fault differentials replay on it.
func TestPendingAnsweredInArrivalOrder(t *testing.T) {
	first := oid(0, "a", 0)
	objs := map[segment.ObjectID]int{first: 0}
	var waiting []segment.ObjectID
	for i, g := range []int{2, 1, 3, 1, 3, 2, 2, 1} {
		id := oid(0, "w", i)
		objs[id] = g
		waiting = append(waiting, id)
	}
	failStop := DefaultConfig()
	failStop.Scheduler = badScheduler{mode: "loaded"}
	for name, rig := range map[string]*testRig{
		"crash":     newFaultRig(t, faults.Plan{Seed: 1, CrashAt: 5 * time.Second}, objs),
		"fail-stop": newRig(failStop, objs),
	} {
		t.Run(name, func(t *testing.T) {
			var refused []segment.ObjectID
			rig.sim.Spawn("client", func(p *vtime.Proc) {
				reply := vtime.NewChan[Delivery](rig.sim, "reply", 16)
				// Group 0 loads for free and serves first for 10 s; the
				// rest wait on groups 1, 2 and 3 when the device gives up.
				rig.csd.Submit(p, &Request{Object: first, QueryID: "q0", Tenant: 0, Reply: reply})
				for i, id := range waiting {
					rig.csd.Submit(p, &Request{Object: id, QueryID: "q1", Tenant: i % 2, Reply: reply})
				}
				for range objs {
					if d := reply.Recv(p); d.Object != first {
						if d.Err == nil {
							t.Errorf("%v was served", d.Object)
						}
						refused = append(refused, d.Object)
					}
				}
				rig.csd.Shutdown(p)
			})
			if err := rig.sim.Run(); err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(refused, waiting) {
				t.Fatalf("pending requests answered as %v, arrived as %v", refused, waiting)
			}
		})
	}
}

// TestPredictionIsTheNextSwitch: PredictNextGroup and switchGroup share
// one nextGroup, so a prediction made while the pending set holds still
// names the group the following switch loads, and there is no prediction
// exactly when nextGroup refuses the scheduler's answer.
func TestPredictionIsTheNextSwitch(t *testing.T) {
	objs := map[segment.ObjectID]int{}
	for i, g := range []int{0, 3, 1, 3, 2, 1, 3} {
		objs[oid(0, "t", i)] = g
	}
	agree := func(t *testing.T, c *CSD) (int, bool) {
		t.Helper()
		g, ok := c.PredictNextGroup()
		next, err := c.nextGroup()
		if ok != (err == nil) || g != next {
			t.Errorf("PredictNextGroup = (%d, %v), nextGroup = (%d, %v)", g, ok, next, err)
		}
		return g, ok
	}
	submitAll := func(p *vtime.Proc, rig *testRig) *vtime.Chan[Delivery] {
		reply := vtime.NewChan[Delivery](rig.sim, "reply", 16)
		for i := 0; i < len(objs); i++ {
			rig.csd.Submit(p, &Request{Object: oid(0, "t", i), QueryID: "q1", Tenant: 0, Reply: reply})
		}
		return reply
	}

	rig := newRig(DefaultConfig(), objs)
	rig.sim.Spawn("client", func(p *vtime.Proc) {
		reply := submitAll(p, rig)
		p.Sleep(time.Second)
		switches := 0
		for {
			g, ok := agree(t, rig.csd)
			if !ok {
				break
			}
			// Wait out the loaded group's transfers and the switch.
			for loaded := rig.csd.LoadedGroup(); rig.csd.LoadedGroup() == loaded; {
				p.Sleep(time.Second)
			}
			if got := rig.csd.LoadedGroup(); got != g {
				t.Errorf("predicted group %d, the switch loaded %d", g, got)
			}
			switches++
		}
		if switches != 3 {
			t.Errorf("followed %d switches, want 3", switches)
		}
		for range objs {
			reply.Recv(p)
		}
		rig.csd.Shutdown(p)
	})
	if err := rig.sim.Run(); err != nil {
		t.Fatal(err)
	}

	// A scheduler that breaks the contract gets no prediction, whichever
	// clause it breaks.
	for _, mode := range []string{"minus1", "loaded", "empty"} {
		cfg := DefaultConfig()
		cfg.Scheduler = badScheduler{mode: mode}
		rig := newRig(cfg, objs)
		rig.sim.Spawn("client", func(p *vtime.Proc) {
			reply := vtime.NewChan[Delivery](rig.sim, "reply", 16)
			rig.csd.Submit(p, &Request{Object: oid(0, "t", 0), QueryID: "q1", Tenant: 0, Reply: reply})
			rig.csd.Submit(p, &Request{Object: oid(0, "t", 1), QueryID: "q1", Tenant: 0, Reply: reply})
			p.Sleep(time.Second) // group 0 is loaded and busy, group 3 has a request waiting
			if g, ok := agree(t, rig.csd); ok {
				t.Errorf("%s: predicted group %d", mode, g)
			}
			reply.Recv(p)
			reply.Recv(p)
			rig.csd.Shutdown(p)
		})
		if err := rig.sim.Run(); err != nil {
			t.Fatal(err)
		}
	}
}
