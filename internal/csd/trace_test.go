package csd

import (
	"fmt"
	"testing"

	"repro/internal/segment"
	"repro/internal/trace"
	"repro/internal/vtime"
)

// serveGets runs a device to completion over n GETs — two tenants on two
// groups, so transfers and group switches both occur — and returns the
// device's counters.
func serveGets(rec *trace.QueryTrace, n int) Stats {
	objs := make(map[segment.ObjectID]int, n)
	for i := 0; i < n; i++ {
		objs[oid(i%2, "a", i)] = i % 2
	}
	cfg := DefaultConfig()
	cfg.Trace = rec
	rig := newRig(cfg, objs)
	rig.sim.Spawn("client", func(p *vtime.Proc) {
		reply := vtime.NewChan[Delivery](rig.sim, "reply", n)
		for id := range objs {
			rig.csd.Submit(p, &Request{Object: id, QueryID: "q", Tenant: id.Tenant, Reply: reply})
		}
		for range objs {
			reply.Recv(p)
		}
		rig.csd.Shutdown(p)
	})
	if err := rig.sim.Run(); err != nil {
		panic(err)
	}
	return rig.csd.Stats()
}

// TestNoRecorderFormatsNothing: every span and object name the device
// builds is built for its recorder. Between a device that records and one
// that does not, each GET's path from arrival to delivery must differ by
// at least the allocations of formatting its transfer span's name — were
// a formatting site unguarded, both would pay it and the difference
// would shrink to the span append alone (amortized, under one per GET).
func TestNoRecorderFormatsNothing(t *testing.T) {
	id := oid(1, "lineitem", 7)
	formatting := testing.AllocsPerRun(100, func() { _ = fmt.Sprintf("%v t%d %s", id, id.Tenant, "q") })
	if formatting < 1 {
		t.Fatalf("formatting a span name allocates %.0f times; the test measures nothing", formatting)
	}
	// The cost of one more GET: the slope between a short and a long run
	// cancels everything a run pays once.
	const few, many = 8, 40
	perGet := func(rec func() *trace.QueryTrace) float64 {
		short := testing.AllocsPerRun(20, func() { serveGets(rec(), few) })
		long := testing.AllocsPerRun(20, func() { serveGets(rec(), many) })
		return (long - short) / (many - few)
	}
	silent := perGet(func() *trace.QueryTrace { return nil })
	recording := perGet(func() *trace.QueryTrace { return trace.NewQueryTrace("device", -1, "") })
	if recording-silent < formatting {
		t.Fatalf("a GET costs %.2f allocations recorded and %.2f not: the %.2f between them is less than the %.0f of formatting one span name, so the unrecorded path formats too",
			recording, silent, recording-silent, formatting)
	}
	t.Logf("allocations per GET: %.2f silent, %.2f recording (formatting a name: %.0f)", silent, recording, formatting)

	// And the recorder saw what the device counted.
	rec := trace.NewQueryTrace("device", -1, "")
	st := serveGets(rec, many)
	transfers, switches := 0, 0
	for _, sp := range rec.Spans() {
		switch sp.Cat {
		case trace.CatTransfer:
			transfers++
		case trace.CatSwitch:
			switches++
		}
	}
	if transfers != st.ObjectsServed || switches != st.GroupSwitches || switches == 0 {
		t.Fatalf("recorded %d transfers and %d switches, the device counted %d and %d", transfers, switches, st.ObjectsServed, st.GroupSwitches)
	}
}
