package csd

import (
	"errors"
	"fmt"
	"slices"
	"testing"
	"time"

	"repro/internal/segment"
	"repro/internal/trace"
	"repro/internal/vtime"
)

// TestDuplicateRequestsCoalesced pins the duplicate-transfer fix: N
// pending requests for the same object while its group is loaded cost
// exactly one transfer (one BytesServed charge, one transfer time) and N
// deliveries, all at the transfer's completion instant.
func TestDuplicateRequestsCoalesced(t *testing.T) {
	obj := oid(0, "a", 0)
	rig := newRig(DefaultConfig(), map[segment.ObjectID]int{obj: 0})
	type got struct {
		tenant int
		at     time.Duration
	}
	var deliveries []got
	done := vtime.NewChan[int](rig.sim, "done", 3)
	// Three requesters: two queries of tenant 0 plus one of tenant 1, all
	// for the same object, all pending before the first dispatch.
	for i, req := range []struct {
		tenant int
		query  string
	}{{0, "q1"}, {0, "q2"}, {1, "q3"}} {
		i, req := i, req
		rig.sim.Spawn(fmt.Sprintf("client%d", i), func(p *vtime.Proc) {
			reply := vtime.NewChan[Delivery](rig.sim, fmt.Sprintf("reply%d", i), 4)
			rig.csd.Submit(p, &Request{Object: obj, QueryID: req.query, Tenant: req.tenant, Reply: reply})
			d := reply.Recv(p)
			if d.Err != nil {
				t.Errorf("client %d: delivery error %v", i, d.Err)
			}
			deliveries = append(deliveries, got{req.tenant, p.Now()})
			done.Send(p, i)
		})
	}
	rig.sim.Spawn("coordinator", func(p *vtime.Proc) {
		for i := 0; i < 3; i++ {
			done.Recv(p)
		}
		rig.csd.Shutdown(p)
	})
	if err := rig.sim.Run(); err != nil {
		t.Fatal(err)
	}
	st := rig.csd.Stats()
	if st.BytesServed != 1e9 {
		t.Fatalf("BytesServed = %d, want one 1 GB transfer", st.BytesServed)
	}
	if st.GetsCoalesced != 2 {
		t.Fatalf("GetsCoalesced = %d, want 2", st.GetsCoalesced)
	}
	if st.GetsReceived != 3 || st.ObjectsServed != 3 {
		t.Fatalf("received %d served %d, want 3 and 3", st.GetsReceived, st.ObjectsServed)
	}
	if len(deliveries) != 3 {
		t.Fatalf("deliveries = %d", len(deliveries))
	}
	// All three deliveries land when the single transfer completes (10 s
	// at 100 MB/s for 1 GB), not serialized at 10/20/30 s.
	for _, d := range deliveries {
		if d.at != 10*time.Second {
			t.Errorf("delivery for tenant %d at %v, want 10s", d.tenant, d.at)
		}
	}
}

// TestCoalescedAcrossQueriesOneTenant exercises the single-tenant shape
// of the bug: the same query stream asking twice for an object must not
// pay twice.
func TestCoalescedAcrossQueriesOneTenant(t *testing.T) {
	obj := oid(0, "a", 0)
	other := oid(0, "b", 0)
	rig := newRig(DefaultConfig(), map[segment.ObjectID]int{obj: 0, other: 0})
	var times []time.Duration
	rig.sim.Spawn("client", func(p *vtime.Proc) {
		reply := vtime.NewChan[Delivery](rig.sim, "reply", 8)
		rig.csd.Submit(p,
			&Request{Object: obj, QueryID: "q1", Tenant: 0, Reply: reply},
			&Request{Object: other, QueryID: "q1", Tenant: 0, Reply: reply},
			&Request{Object: obj, QueryID: "q2", Tenant: 0, Reply: reply},
		)
		for i := 0; i < 3; i++ {
			reply.Recv(p)
			times = append(times, p.Now())
		}
		rig.csd.Shutdown(p)
	})
	if err := rig.sim.Run(); err != nil {
		t.Fatal(err)
	}
	st := rig.csd.Stats()
	if st.BytesServed != 2e9 {
		t.Fatalf("BytesServed = %d, want two transfers for two distinct objects", st.BytesServed)
	}
	if st.GetsCoalesced != 1 {
		t.Fatalf("GetsCoalesced = %d, want 1", st.GetsCoalesced)
	}
	// Two transfers on one serialized stream: 10 s and 20 s; the
	// coalesced delivery rides the first.
	want := []time.Duration{10 * time.Second, 10 * time.Second, 20 * time.Second}
	if len(times) != 3 {
		t.Fatalf("deliveries = %d", len(times))
	}
	for i, at := range times {
		if at != want[i] {
			t.Errorf("delivery %d at %v, want %v", i, at, want[i])
		}
	}
}

// TestLateRequestJoinsInFlightTransfer pins the in-flight half of the
// duplicate-transfer fix: a same-object request arriving while the
// object's transfer is already running rides that transfer — one
// BytesServed charge, delivery at the original completion time — rather
// than paying a second full transfer.
func TestLateRequestJoinsInFlightTransfer(t *testing.T) {
	obj := oid(0, "a", 0)
	rig := newRig(DefaultConfig(), map[segment.ObjectID]int{obj: 0})
	var atA, atB time.Duration
	done := vtime.NewChan[int](rig.sim, "done", 2)
	rig.sim.Spawn("clientA", func(p *vtime.Proc) {
		reply := vtime.NewChan[Delivery](rig.sim, "replyA", 4)
		rig.csd.Submit(p, &Request{Object: obj, QueryID: "q1", Tenant: 0, Reply: reply})
		reply.Recv(p)
		atA = p.Now()
		done.Send(p, 0)
	})
	rig.sim.Spawn("clientB", func(p *vtime.Proc) {
		// Arrive 4 s into client A's 10 s transfer.
		p.Sleep(4 * time.Second)
		reply := vtime.NewChan[Delivery](rig.sim, "replyB", 4)
		rig.csd.Submit(p, &Request{Object: obj, QueryID: "q2", Tenant: 1, Reply: reply})
		reply.Recv(p)
		atB = p.Now()
		done.Send(p, 1)
	})
	rig.sim.Spawn("coordinator", func(p *vtime.Proc) {
		done.Recv(p)
		done.Recv(p)
		rig.csd.Shutdown(p)
	})
	if err := rig.sim.Run(); err != nil {
		t.Fatal(err)
	}
	st := rig.csd.Stats()
	if st.BytesServed != 1e9 {
		t.Fatalf("BytesServed = %d, want one transfer", st.BytesServed)
	}
	if st.GetsCoalesced != 1 || st.ObjectsServed != 2 {
		t.Fatalf("coalesced %d served %d, want 1 and 2", st.GetsCoalesced, st.ObjectsServed)
	}
	if atA != 10*time.Second || atB != 10*time.Second {
		t.Fatalf("deliveries at %v and %v, want both at 10s", atA, atB)
	}
}

// TestRequestAfterTransferCompletesPaysItsOwn bounds the ride-along
// window: a same-object request arriving after the transfer completed
// is a fresh fetch (the bytes are gone from the device's hands — reuse
// beyond this point is the segment cache's job).
func TestRequestAfterTransferCompletesPaysItsOwn(t *testing.T) {
	obj := oid(0, "a", 0)
	rig := newRig(DefaultConfig(), map[segment.ObjectID]int{obj: 0})
	done := vtime.NewChan[int](rig.sim, "done", 2)
	rig.sim.Spawn("clientA", func(p *vtime.Proc) {
		reply := vtime.NewChan[Delivery](rig.sim, "replyA", 4)
		rig.csd.Submit(p, &Request{Object: obj, QueryID: "q1", Tenant: 0, Reply: reply})
		reply.Recv(p)
		done.Send(p, 0)
	})
	rig.sim.Spawn("clientB", func(p *vtime.Proc) {
		p.Sleep(15 * time.Second) // well past the 10 s transfer
		reply := vtime.NewChan[Delivery](rig.sim, "replyB", 4)
		rig.csd.Submit(p, &Request{Object: obj, QueryID: "q2", Tenant: 1, Reply: reply})
		reply.Recv(p)
		done.Send(p, 1)
	})
	rig.sim.Spawn("coordinator", func(p *vtime.Proc) {
		done.Recv(p)
		done.Recv(p)
		rig.csd.Shutdown(p)
	})
	if err := rig.sim.Run(); err != nil {
		t.Fatal(err)
	}
	st := rig.csd.Stats()
	if st.BytesServed != 2e9 || st.GetsCoalesced != 0 {
		t.Fatalf("bytes %d coalesced %d, want two full transfers", st.BytesServed, st.GetsCoalesced)
	}
}

// badScheduler violates the NextGroup contract in a configurable way.
type badScheduler struct {
	mode string // "minus1", "loaded", "empty"
}

func (b badScheduler) Name() string { return "bad-" + b.mode }

func (b badScheduler) NextGroup(loaded int, pending map[int][]*Request, _ func(string) int) int {
	switch b.mode {
	case "minus1":
		return -1
	case "loaded":
		return loaded
	default: // a group id guaranteed to hold no pending requests
		return 1 << 20
	}
}

// TestMisbehavingSchedulerFailsTyped pins the scheduler-contract fix: a
// policy returning -1, the loaded group, or a group without pending
// requests must fail the run with a *SchedulerContractError delivered to
// the waiting clients instead of corrupting it.
func TestMisbehavingSchedulerFailsTyped(t *testing.T) {
	for _, mode := range []string{"minus1", "loaded", "empty"} {
		t.Run(mode, func(t *testing.T) {
			cfg := DefaultConfig()
			cfg.Scheduler = badScheduler{mode: mode}
			a, b := oid(0, "a", 0), oid(0, "b", 0)
			rig := newRig(cfg, map[segment.ObjectID]int{a: 0, b: 1})
			var errs []error
			rig.sim.Spawn("client", func(p *vtime.Proc) {
				reply := vtime.NewChan[Delivery](rig.sim, "reply", 4)
				// First object loads group 0 for free; the second forces a
				// switch decision, which the bad scheduler botches.
				rig.csd.Submit(p,
					&Request{Object: a, QueryID: "q1", Tenant: 0, Reply: reply},
					&Request{Object: b, QueryID: "q1", Tenant: 0, Reply: reply},
				)
				for i := 0; i < 2; i++ {
					if d := reply.Recv(p); d.Err != nil {
						errs = append(errs, d.Err)
					}
				}
				// A request submitted after the fail-stop errors immediately.
				rig.csd.Submit(p, &Request{Object: a, QueryID: "q2", Tenant: 0, Reply: reply})
				if d := reply.Recv(p); d.Err != nil {
					errs = append(errs, d.Err)
				}
				rig.csd.Shutdown(p)
			})
			if err := rig.sim.Run(); err != nil {
				t.Fatal(err)
			}
			if len(errs) != 2 {
				t.Fatalf("error deliveries = %d, want 2 (stranded + post-failure)", len(errs))
			}
			for _, err := range errs {
				var sce *SchedulerContractError
				if !errors.As(err, &sce) {
					t.Fatalf("delivery error %v is not a SchedulerContractError", err)
				}
				if sce.Scheduler != "bad-"+mode {
					t.Errorf("error names scheduler %q", sce.Scheduler)
				}
			}
			var sce *SchedulerContractError
			if !errors.As(rig.csd.Err(), &sce) {
				t.Fatalf("CSD.Err() = %v, want SchedulerContractError", rig.csd.Err())
			}
			if rig.csd.Stats().GroupSwitches != 0 {
				t.Errorf("switches = %d after contract violation, want 0", rig.csd.Stats().GroupSwitches)
			}
		})
	}
}

// TestRankBasedPrefersCoalescableGroup pins the coalesce-aware tie-break:
// with rank and query count equal, the group whose pending requests
// collapse onto fewer transfers wins.
func TestRankBasedPrefersCoalescableGroup(t *testing.T) {
	s := NewRankBased()
	waiting := func(string) int { return 0 }
	mk := func(table string, idx int, q string) *Request {
		// A shared dataset: the object ids name tenant 0's data even when
		// different clients (Request.Tenant) ask for them.
		return &Request{Object: oid(0, table, idx), QueryID: q}
	}
	pending := map[int][]*Request{
		// Group 1: two queries, two distinct objects — two transfers.
		1: {mk("a", 0, "q1"), mk("a", 1, "q2")},
		// Group 2: two queries, one shared object — one transfer.
		2: {mk("b", 0, "q3"), mk("b", 0, "q4")},
	}
	if got := s.NextGroup(0, pending, waiting); got != 2 {
		t.Fatalf("NextGroup = %d, want the coalescable group 2", got)
	}
	// Sanity: with no duplicates anywhere the earlier group still wins
	// the id tie-break, so existing behaviour is unchanged.
	pending[2] = []*Request{mk("b", 0, "q3"), mk("b", 1, "q4")}
	if got := s.NextGroup(0, pending, waiting); got != 1 {
		t.Fatalf("NextGroup = %d, want group 1 on pure id tie-break", got)
	}
}

// TestPrefetchDemandRaceCoalesced pins the prefetch contract at the
// device: a speculative prefetch GET and the demand GET for the same
// object — same tenant, distinct reply channels, the shape the client
// proxy's prefetcher produces — collapse onto one transfer. One
// BytesServed charge, both deliveries at the transfer's completion.
func TestPrefetchDemandRaceCoalesced(t *testing.T) {
	obj := oid(0, "a", 0)
	rig := newRig(DefaultConfig(), map[segment.ObjectID]int{obj: 0})
	var atPrefetch, atDemand time.Duration
	done := vtime.NewChan[int](rig.sim, "done", 2)
	rig.sim.Spawn("prefetcher", func(p *vtime.Proc) {
		reply := vtime.NewChan[Delivery](rig.sim, "reply.prefetch", 4)
		rig.csd.Submit(p, &Request{Object: obj, QueryID: "q1", Tenant: 0, Reply: reply})
		if d := reply.Recv(p); d.Err != nil {
			t.Errorf("prefetch delivery error: %v", d.Err)
		}
		atPrefetch = p.Now()
		done.Send(p, 0)
	})
	rig.sim.Spawn("demand", func(p *vtime.Proc) {
		// The query reaches the segment 3 s into the prefetch's transfer.
		p.Sleep(3 * time.Second)
		reply := vtime.NewChan[Delivery](rig.sim, "reply.demand", 4)
		rig.csd.Submit(p, &Request{Object: obj, QueryID: "q1", Tenant: 0, Reply: reply})
		if d := reply.Recv(p); d.Err != nil {
			t.Errorf("demand delivery error: %v", d.Err)
		}
		atDemand = p.Now()
		done.Send(p, 1)
	})
	rig.sim.Spawn("coordinator", func(p *vtime.Proc) {
		done.Recv(p)
		done.Recv(p)
		rig.csd.Shutdown(p)
	})
	if err := rig.sim.Run(); err != nil {
		t.Fatal(err)
	}
	st := rig.csd.Stats()
	if st.BytesServed != 1e9 {
		t.Fatalf("BytesServed = %d, want exactly one charge for the prefetch+demand pair", st.BytesServed)
	}
	if st.GetsCoalesced != 1 || st.GetsReceived != 2 || st.ObjectsServed != 2 {
		t.Fatalf("coalesced %d received %d served %d, want 1/2/2",
			st.GetsCoalesced, st.GetsReceived, st.ObjectsServed)
	}
	if atPrefetch != 10*time.Second || atDemand != 10*time.Second {
		t.Fatalf("deliveries at %v and %v, want both at 10s", atPrefetch, atDemand)
	}
}

// TestLoadedAndPredictedGroup pins the advisory scheduler views the
// prefetcher aims with: LoadedGroup tracks the spun-up group and
// PredictNextGroup mirrors the scheduler's next pick without switching.
func TestLoadedAndPredictedGroup(t *testing.T) {
	a, b := oid(0, "a", 0), oid(0, "b", 0)
	rig := newRig(DefaultConfig(), map[segment.ObjectID]int{a: 0, b: 1})
	rig.sim.Spawn("client", func(p *vtime.Proc) {
		if g := rig.csd.LoadedGroup(); g != -1 {
			t.Errorf("LoadedGroup before first load = %d, want -1", g)
		}
		if g, ok := rig.csd.PredictNextGroup(); ok {
			t.Errorf("PredictNextGroup with empty pending = (%d, true), want no prediction", g)
		}
		reply := vtime.NewChan[Delivery](rig.sim, "reply", 4)
		rig.csd.Submit(p,
			&Request{Object: a, QueryID: "q1", Tenant: 0, Reply: reply},
			&Request{Object: b, QueryID: "q1", Tenant: 0, Reply: reply},
		)
		// 1 s into a's 10 s transfer: group 0 is loaded, b is pending on
		// group 1 — the only possible next pick.
		p.Sleep(time.Second)
		if g := rig.csd.LoadedGroup(); g != 0 {
			t.Errorf("LoadedGroup mid-transfer = %d, want 0", g)
		}
		if g, ok := rig.csd.PredictNextGroup(); !ok || g != 1 {
			t.Errorf("PredictNextGroup = (%d, %v), want (1, true)", g, ok)
		}
		reply.Recv(p)
		reply.Recv(p)
		if g := rig.csd.LoadedGroup(); g != 1 {
			t.Errorf("LoadedGroup after switch = %d, want 1", g)
		}
		rig.csd.Shutdown(p)
	})
	if err := rig.sim.Run(); err != nil {
		t.Fatal(err)
	}
	if sw := rig.csd.Stats().GroupSwitches; sw != 1 {
		t.Fatalf("switches = %d, want 1", sw)
	}
}

// TestRecycledRequestsStartClean: the device copies what it is submitted
// into requests of its own and recycles them once delivered. A request
// that rode another's transfer, recycled, carries no followers and no
// coalesced mark in its next life as a carrier; a carrier keeps its
// followers' capacity; and a caller that rewrites its Request value right
// after Submit does not change what the device delivers.
func TestRecycledRequestsStartClean(t *testing.T) {
	a, b, c := oid(0, "a", 0), oid(0, "b", 0), oid(0, "c", 0)
	cfg := DefaultConfig()
	rec := trace.NewQueryTrace("device", -1, "")
	cfg.Trace = rec
	rig := newRig(cfg, map[segment.ObjectID]int{a: 0, b: 0, c: 0})
	rig.sim.Spawn("client", func(p *vtime.Proc) {
		reply, stray := vtime.NewChan[Delivery](rig.sim, "reply", 8), vtime.NewChan[Delivery](rig.sim, "stray", 8)
		// First life: q2's GET of a rides q1's transfer.
		var req Request
		for _, q := range []string{"q1", "q2"} {
			req = Request{Object: a, QueryID: q, Reply: reply}
			rig.csd.Submit(p, &req)
			req = Request{Object: b, QueryID: "rewritten", Tenant: 1, Reply: stray}
		}
		for i := 0; i < 2; i++ {
			if d := reply.Recv(p); d.Object != a || d.Err != nil {
				t.Errorf("first life: delivery of %v (%v), want %v", d.Object, d.Err, a)
			}
		}
		if len(rig.csd.free) < 2 {
			t.Fatalf("%d requests on the free list after two deliveries, want both", len(rig.csd.free))
		}
		kept := 0
		for _, r := range rig.csd.free {
			kept += cap(r.followers)
			if len(r.followers) != 0 || r.coalesced || r.seq != 0 || r.arrivedAt != 0 || !r.arrivedWall.IsZero() || r.Reply != nil {
				t.Errorf("a recycled request is not clean: %+v", *r)
			}
		}
		if kept == 0 {
			t.Error("the carrier's followers lost their capacity")
		}
		// Second life: both requests carry transfers of their own.
		rig.csd.Submit(p, &Request{Object: b, QueryID: "q3", Reply: reply}, &Request{Object: c, QueryID: "q4", Reply: reply})
		got := map[segment.ObjectID]int{}
		for i := 0; i < 2; i++ {
			got[reply.Recv(p).Object]++
		}
		if got[b] != 1 || got[c] != 1 || reply.Len() != 0 || stray.Len() != 0 {
			t.Errorf("second life: deliveries %v, %d more on the reply channel and %d on the rewritten one; want b and c once each", got, reply.Len(), stray.Len())
		}
		rig.csd.Shutdown(p)
	})
	if err := rig.sim.Run(); err != nil {
		t.Fatal(err)
	}
	st := rig.csd.Stats()
	if st.GetsReceived != 4 || st.GetsCoalesced != 1 || st.ObjectsServed != 4 || st.ServedByQuery["rewritten"] != 0 {
		t.Fatalf("received %d, coalesced %d, served %d, %d for the rewritten value; want 4, 1, 4, 0",
			st.GetsReceived, st.GetsCoalesced, st.ObjectsServed, st.ServedByQuery["rewritten"])
	}
	var names []string
	for _, sp := range rec.Spans() {
		if sp.Cat == trace.CatTransfer {
			names = append(names, sp.Name)
		}
	}
	want := []string{fmt.Sprintf("%v t0 q1", a), fmt.Sprintf("%v t0 q2 coalesced", a), fmt.Sprintf("%v t0 q3", b), fmt.Sprintf("%v t0 q4", c)}
	if !slices.Equal(names, want) {
		t.Fatalf("transfer spans %q, want %q", names, want)
	}
}
