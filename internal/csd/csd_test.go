package csd

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/layout"
	"repro/internal/segment"
	"repro/internal/vtime"
)

// testRig wires a CSD over an in-memory store for scheduler/latency tests.
type testRig struct {
	sim    *vtime.Sim
	csd    *CSD
	store  map[segment.ObjectID]*segment.Segment
	assign *layout.Assignment
}

// oid builds an object id.
func oid(tenant int, table string, idx int) segment.ObjectID {
	return segment.ObjectID{Tenant: tenant, Table: table, Index: idx}
}

// newRig creates a rig; objects maps id->group; every object is 1 GB so a
// transfer takes 10 s at the default 100 MB/s.
func newRig(cfg Config, objects map[segment.ObjectID]int) *testRig {
	sim := vtime.NewSim()
	store := make(map[segment.ObjectID]*segment.Segment)
	maxGroup := 0
	for _, g := range objects {
		if g > maxGroup {
			maxGroup = g
		}
	}
	assign := layout.MustAssignment(maxGroup + 1)
	for id, g := range objects {
		store[id] = &segment.Segment{ID: id, NominalBytes: 1e9}
		assign.Place(id, g)
	}
	c := New(sim, cfg, store, assign)
	c.Start()
	return &testRig{sim: sim, csd: c, store: store, assign: assign}
}

// arrival records one delivery.
type arrival struct {
	obj segment.ObjectID
	at  time.Duration
}

func TestSingleClientSingleGroupNoSwitches(t *testing.T) {
	objs := map[segment.ObjectID]int{
		oid(0, "a", 0): 0,
		oid(0, "a", 1): 0,
		oid(0, "b", 0): 0,
	}
	rig := newRig(DefaultConfig(), objs)
	var got []arrival
	rig.sim.Spawn("client", func(p *vtime.Proc) {
		reply := vtime.NewChan[Delivery](rig.sim, "reply", 16)
		for id := range objs {
			rig.csd.Submit(p, &Request{Object: id, QueryID: "q1", Tenant: 0, Reply: reply})
		}
		for i := 0; i < len(objs); i++ {
			d := reply.Recv(p)
			got = append(got, arrival{d.Object, p.Now()})
		}
		rig.csd.Shutdown(p)
	})
	if err := rig.sim.Run(); err != nil {
		t.Fatal(err)
	}
	st := rig.csd.Stats()
	if st.GroupSwitches != 0 {
		t.Fatalf("switches = %d, want 0", st.GroupSwitches)
	}
	if st.ObjectsServed != 3 {
		t.Fatalf("served = %d", st.ObjectsServed)
	}
	// Serialized per-tenant stream: deliveries at 10, 20, 30 s.
	for i, a := range got {
		want := time.Duration(i+1) * 10 * time.Second
		if a.at != want {
			t.Errorf("delivery %d at %v, want %v", i, a.at, want)
		}
	}
}

func TestGroupServicedFullyBeforeSwitch(t *testing.T) {
	// Tenant 0 on group 0 (2 objects), tenant 1 on group 1 (2 objects).
	objs := map[segment.ObjectID]int{
		oid(0, "a", 0): 0,
		oid(0, "a", 1): 0,
		oid(1, "a", 0): 1,
		oid(1, "a", 1): 1,
	}
	rig := newRig(DefaultConfig(), objs)
	finish := make(map[int]time.Duration)
	done := vtime.NewChan[int](rig.sim, "done", 2)
	for tenant := 0; tenant < 2; tenant++ {
		tenant := tenant
		rig.sim.Spawn(fmt.Sprintf("client%d", tenant), func(p *vtime.Proc) {
			reply := vtime.NewChan[Delivery](rig.sim, fmt.Sprintf("reply%d", tenant), 16)
			for i := 0; i < 2; i++ {
				rig.csd.Submit(p, &Request{Object: oid(tenant, "a", i), QueryID: fmt.Sprintf("q%d", tenant), Tenant: tenant, Reply: reply})
			}
			for i := 0; i < 2; i++ {
				reply.Recv(p)
			}
			finish[tenant] = p.Now()
			done.Send(p, tenant)
		})
	}
	rig.sim.Spawn("coordinator", func(p *vtime.Proc) {
		done.Recv(p)
		done.Recv(p)
		rig.csd.Shutdown(p)
	})
	if err := rig.sim.Run(); err != nil {
		t.Fatal(err)
	}
	st := rig.csd.Stats()
	if st.GroupSwitches != 1 {
		t.Fatalf("switches = %d, want 1", st.GroupSwitches)
	}
	// Group 0 (first client to submit) fully served by 20 s; then a 10 s
	// switch; group 1 served by 20+10+20 = 50 s.
	if finish[0] != 20*time.Second {
		t.Errorf("tenant 0 finished at %v, want 20s", finish[0])
	}
	if finish[1] != 50*time.Second {
		t.Errorf("tenant 1 finished at %v, want 50s", finish[1])
	}
	if len(st.SwitchIntervals) != 1 || st.SwitchIntervals[0] != (Interval{From: 20 * time.Second, To: 30 * time.Second}) {
		t.Errorf("switch intervals %v", st.SwitchIntervals)
	}
}

func TestSemanticRoundRobinOrdering(t *testing.T) {
	objs := map[segment.ObjectID]int{
		oid(0, "a", 0): 0,
		oid(0, "a", 1): 0,
		oid(0, "b", 0): 0,
		oid(0, "b", 1): 0,
	}
	rig := newRig(DefaultConfig(), objs)
	var order []string
	rig.sim.Spawn("client", func(p *vtime.Proc) {
		reply := vtime.NewChan[Delivery](rig.sim, "reply", 16)
		// Submit all of a, then all of b — MJoin's natural issue order.
		for _, id := range []segment.ObjectID{oid(0, "a", 0), oid(0, "a", 1), oid(0, "b", 0), oid(0, "b", 1)} {
			rig.csd.Submit(p, &Request{Object: id, QueryID: "q", Tenant: 0, Reply: reply})
		}
		for i := 0; i < 4; i++ {
			d := reply.Recv(p)
			order = append(order, fmt.Sprintf("%s.%d", d.Object.Table, d.Object.Index))
		}
		rig.csd.Shutdown(p)
	})
	if err := rig.sim.Run(); err != nil {
		t.Fatal(err)
	}
	want := "[a.0 b.0 a.1 b.1]"
	if got := fmt.Sprint(order); got != want {
		t.Fatalf("delivery order %v, want %v", got, want)
	}
}

func TestTransferTimeProportionalToSize(t *testing.T) {
	sim := vtime.NewSim()
	id := oid(0, "a", 0)
	store := map[segment.ObjectID]*segment.Segment{
		id: {ID: id, NominalBytes: 250e6}, // 2.5 s at 100 MB/s
	}
	assign := layout.MustAssignment(1)
	assign.Place(id, 0)
	c := New(sim, DefaultConfig(), store, assign)
	c.Start()
	var at time.Duration
	sim.Spawn("client", func(p *vtime.Proc) {
		reply := vtime.NewChan[Delivery](sim, "reply", 1)
		c.Submit(p, &Request{Object: id, QueryID: "q", Tenant: 0, Reply: reply})
		reply.Recv(p)
		at = p.Now()
		c.Shutdown(p)
	})
	if err := sim.Run(); err != nil {
		t.Fatal(err)
	}
	if at != 2500*time.Millisecond {
		t.Fatalf("delivery at %v, want 2.5s", at)
	}
}

func TestParallelStreamsAcrossTenants(t *testing.T) {
	// Two tenants, both on group 0: their transfers proceed in parallel
	// (independent streams), so both finish at 10 s.
	objs := map[segment.ObjectID]int{
		oid(0, "a", 0): 0,
		oid(1, "a", 0): 0,
	}
	rig := newRig(DefaultConfig(), objs)
	finish := make(map[int]time.Duration)
	done := vtime.NewChan[int](rig.sim, "done", 2)
	for tenant := 0; tenant < 2; tenant++ {
		tenant := tenant
		rig.sim.Spawn(fmt.Sprintf("client%d", tenant), func(p *vtime.Proc) {
			reply := vtime.NewChan[Delivery](rig.sim, fmt.Sprintf("r%d", tenant), 1)
			rig.csd.Submit(p, &Request{Object: oid(tenant, "a", 0), QueryID: fmt.Sprintf("q%d", tenant), Tenant: tenant, Reply: reply})
			reply.Recv(p)
			finish[tenant] = p.Now()
			done.Send(p, tenant)
		})
	}
	rig.sim.Spawn("coord", func(p *vtime.Proc) {
		done.Recv(p)
		done.Recv(p)
		rig.csd.Shutdown(p)
	})
	if err := rig.sim.Run(); err != nil {
		t.Fatal(err)
	}
	if finish[0] != 10*time.Second || finish[1] != 10*time.Second {
		t.Fatalf("finishes %v, want both 10s", finish)
	}
}

func TestUnknownObjectPanics(t *testing.T) {
	rig := newRig(DefaultConfig(), map[segment.ObjectID]int{oid(0, "a", 0): 0})
	rig.sim.Spawn("client", func(p *vtime.Proc) {
		defer func() {
			if recover() == nil {
				t.Error("Submit of unknown object did not panic")
			}
			rig.csd.Shutdown(p)
		}()
		reply := vtime.NewChan[Delivery](rig.sim, "r", 1)
		rig.csd.Submit(p, &Request{Object: oid(9, "zz", 9), QueryID: "q", Tenant: 9, Reply: reply})
	})
	if err := rig.sim.Run(); err != nil {
		t.Fatal(err)
	}
}

// schedScenario exercises NextGroup directly with synthetic pending maps.
func req(seq int, query string, tenant int) *Request {
	return &Request{QueryID: query, Tenant: tenant, seq: seq}
}

func TestFCFSObjectPicksOldest(t *testing.T) {
	pending := map[int][]*Request{
		1: {req(5, "q1", 0)},
		2: {req(2, "q2", 1)},
		3: {req(9, "q3", 2)},
	}
	if g := NewFCFSObject().NextGroup(0, pending, nil); g != 2 {
		t.Fatalf("fcfs-object picked %d, want 2", g)
	}
}

func TestMaxQueriesPicksBusiestGroup(t *testing.T) {
	pending := map[int][]*Request{
		1: {req(1, "q1", 0), req(2, "q1", 0)},                  // 1 query, 2 requests
		2: {req(3, "q2", 1), req(4, "q3", 2)},                  // 2 queries
		3: {req(5, "q4", 3)},                                   // 1 query
		0: {req(0, "q5", 4), req(6, "q6", 5), req(7, "q7", 6)}, // loaded: excluded
	}
	if g := NewMaxQueries().NextGroup(0, pending, nil); g != 2 {
		t.Fatalf("max-queries picked %d, want 2", g)
	}
}

func TestRankBasedBalancesWaitAndCount(t *testing.T) {
	pending := map[int][]*Request{
		1: {req(1, "q1", 0), req(2, "q2", 1)}, // Ng=2, no waiting
		2: {req(3, "q3", 2)},                  // Ng=1, long wait
	}
	wait := func(q string) int {
		if q == "q3" {
			return 4
		}
		return 0
	}
	// R(1) = 2, R(2) = 1 + 4 = 5: the starving group wins.
	if g := NewRankBased().NextGroup(0, pending, wait); g != 2 {
		t.Fatalf("rank picked %d, want 2", g)
	}
	// Max-Queries, blind to waiting, takes the busier group.
	if g := NewMaxQueries().NextGroup(0, pending, wait); g != 1 {
		t.Fatalf("max-queries picked %d, want 1", g)
	}
}

func TestRankBasedTieBreaksOnQueryCount(t *testing.T) {
	pending := map[int][]*Request{
		1: {req(1, "q1", 0)},                  // Ng=1, wait 1 => R=2
		2: {req(2, "q2", 1), req(3, "q3", 2)}, // Ng=2, wait 0 => R=2
	}
	wait := func(q string) int {
		if q == "q1" {
			return 1
		}
		return 0
	}
	if g := NewRankBased().NextGroup(0, pending, wait); g != 2 {
		t.Fatalf("rank tie-break picked %d, want 2 (higher Ng)", g)
	}
}

func TestVanillaPullPattern(t *testing.T) {
	// Two tenants on distinct groups pulling one object at a time: every
	// consecutive pair of requests from a tenant is separated by two
	// switches (away and back), the paper's S·C·D pathology.
	objs := make(map[segment.ObjectID]int)
	const perTenant = 3
	for tenant := 0; tenant < 2; tenant++ {
		for i := 0; i < perTenant; i++ {
			objs[oid(tenant, "a", i)] = tenant
		}
	}
	rig := newRig(DefaultConfig(), objs)
	finish := make(map[int]time.Duration)
	done := vtime.NewChan[int](rig.sim, "done", 2)
	for tenant := 0; tenant < 2; tenant++ {
		tenant := tenant
		rig.sim.Spawn(fmt.Sprintf("client%d", tenant), func(p *vtime.Proc) {
			reply := vtime.NewChan[Delivery](rig.sim, fmt.Sprintf("r%d", tenant), 1)
			for i := 0; i < perTenant; i++ {
				rig.csd.Submit(p, &Request{Object: oid(tenant, "a", i), QueryID: fmt.Sprintf("q%d", tenant), Tenant: tenant, Reply: reply})
				reply.Recv(p)
				p.Sleep(time.Second) // think time before next pull
			}
			finish[tenant] = p.Now()
			done.Send(p, tenant)
		})
	}
	rig.sim.Spawn("coord", func(p *vtime.Proc) {
		done.Recv(p)
		done.Recv(p)
		rig.csd.Shutdown(p)
	})
	if err := rig.sim.Run(); err != nil {
		t.Fatal(err)
	}
	st := rig.csd.Stats()
	// Pull alternation forces a switch for nearly every object.
	if st.GroupSwitches < 2*perTenant-2 {
		t.Fatalf("switches = %d, want >= %d", st.GroupSwitches, 2*perTenant-2)
	}
}

func TestStatsGetCounts(t *testing.T) {
	objs := map[segment.ObjectID]int{
		oid(0, "a", 0): 0,
		oid(0, "a", 1): 0,
	}
	rig := newRig(DefaultConfig(), objs)
	rig.sim.Spawn("client", func(p *vtime.Proc) {
		reply := vtime.NewChan[Delivery](rig.sim, "r", 4)
		// Re-request the same object: both GETs must be counted (request
		// reissue accounting for Figure 11b).
		rig.csd.Submit(p, &Request{Object: oid(0, "a", 0), QueryID: "q", Tenant: 0, Reply: reply})
		rig.csd.Submit(p, &Request{Object: oid(0, "a", 1), QueryID: "q", Tenant: 0, Reply: reply})
		reply.Recv(p)
		reply.Recv(p)
		rig.csd.Submit(p, &Request{Object: oid(0, "a", 0), QueryID: "q", Tenant: 0, Reply: reply})
		reply.Recv(p)
		rig.csd.Shutdown(p)
	})
	if err := rig.sim.Run(); err != nil {
		t.Fatal(err)
	}
	st := rig.csd.Stats()
	if st.GetsReceived != 3 || st.GetsByTenant[0] != 3 {
		t.Fatalf("GET counts: %+v", st)
	}
	if st.ServedByQuery["q"] != 3 {
		t.Fatalf("served by query: %v", st.ServedByQuery)
	}
	if st.BytesServed != 3e9 {
		t.Fatalf("bytes served %d", st.BytesServed)
	}
}
