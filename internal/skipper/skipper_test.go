package skipper

import (
	"errors"
	"fmt"
	"sort"
	"strings"
	"testing"
	"time"

	"repro/internal/catalog"
	"repro/internal/csd"
	"repro/internal/engine"
	"repro/internal/expr"
	"repro/internal/layout"
	"repro/internal/mjoin"
	"repro/internal/segment"
	"repro/internal/tuple"
	"repro/internal/vtime"
)

// makeTenantDB builds, for one tenant, two relations a(ak, pay) and
// b(bk, pay) whose keys join one-to-one, split into segsA/segsB segments.
func makeTenantDB(tenant, rowsPer, segsA, segsB int, store map[segment.ObjectID]*segment.Segment) *catalog.Catalog {
	cat := catalog.New(tenant)
	mk := func(name, col string, nsegs int) {
		sch := tuple.NewSchema(
			tuple.Column{Name: col, Kind: tuple.KindInt64},
			tuple.Column{Name: col + "_pay", Kind: tuple.KindString},
		)
		n := rowsPer * nsegs
		rows := make([]tuple.Row, n)
		for i := range rows {
			rows[i] = tuple.Row{tuple.Int(int64(i)), tuple.Str(fmt.Sprintf("%s-%d", name, i))}
		}
		segs := segment.Split(tenant, name, rows, rowsPer, 1e9)
		for _, sg := range segs {
			store[sg.ID] = sg
		}
		cat.MustAddTable(name, sch, segs)
	}
	mk("a", "ak", segsA)
	mk("b", "bk", segsB)
	return cat
}

func joinQuery(cat *catalog.Catalog) *mjoin.Query {
	return &mjoin.Query{
		ID: "j",
		Relations: []mjoin.Relation{
			{Table: cat.MustTable("a")},
			{Table: cat.MustTable("b")},
		},
		Joins: []mjoin.JoinCond{{Rel: 1, LeftCol: "ak", RightCol: "bk"}},
	}
}

// TestShapedWithoutBound: a spec without a Bound checks the join's output
// against the schema its join compiled, and an invalid join comes back as
// Validate's error, not a panic.
func TestShapedWithoutBound(t *testing.T) {
	join := joinQuery(makeTenantDB(0, 2, 2, 2, make(map[segment.ObjectID]*segment.Segment)))
	out, err := join.Validate()
	if err != nil {
		t.Fatal(err)
	}
	shape := func(in engine.Iterator) engine.Iterator { return engine.NewLimit(in, 1) }
	spec := QuerySpec{Name: "j", Join: join, Shape: shape}
	if _, err := spec.Shaped(engine.NewValues(out, nil)); err != nil {
		t.Fatalf("the join's own output refused: %v", err)
	}
	var se *SchemaError
	if _, err := spec.Shaped(engine.NewValues(tuple.NewSchema(out.Cols[1:]...), nil)); !errors.As(err, &se) {
		t.Fatalf("a narrower input: %v, want a *SchemaError", err)
	}
	bad := QuerySpec{Name: "bad", Join: &mjoin.Query{ID: "bad"}, Shape: shape}
	if _, err := bad.Shaped(engine.NewValues(out, nil)); err == nil || !strings.Contains(err.Error(), "query bad has no relations") {
		t.Fatalf("an invalid join: %v, want its validation error", err)
	}
}

// buildCluster creates n clients in the given mode over per-tenant
// replicas of the same dataset.
func buildCluster(n int, mode Mode, cache int) *Cluster {
	store := make(map[segment.ObjectID]*segment.Segment)
	clients := make([]*Client, n)
	for t := 0; t < n; t++ {
		cat := makeTenantDB(t, 10, 3, 3, store)
		clients[t] = &Client{
			Tenant:       t,
			Mode:         mode,
			Catalog:      cat,
			CacheObjects: cache,
			Queries:      []QuerySpec{{Name: "q", Join: joinQuery(cat)}},
		}
	}
	return &Cluster{Clients: clients, Store: store}
}

func TestVanillaAndSkipperSameResults(t *testing.T) {
	for _, mode := range []Mode{ModeVanilla, ModeSkipper} {
		cl := buildCluster(2, mode, 6)
		res, err := cl.Run()
		if err != nil {
			t.Fatalf("%v: %v", mode, err)
		}
		for _, cs := range res.Clients {
			// one-to-one join over 30 keys
			if cs.Rows != 30 {
				t.Fatalf("%v tenant %d: %d rows, want 30", mode, cs.Tenant, cs.Rows)
			}
		}
	}
}

func TestSkipperScalesBetterThanVanilla(t *testing.T) {
	// With 3 clients on one-group-per-client, the vanilla pull pattern
	// pays a switch per object; Skipper batches per group.
	van, err := buildCluster(3, ModeVanilla, 0).Run()
	if err != nil {
		t.Fatal(err)
	}
	skp, err := buildCluster(3, ModeSkipper, 6).Run()
	if err != nil {
		t.Fatal(err)
	}
	if skp.CSD.GroupSwitches >= van.CSD.GroupSwitches {
		t.Fatalf("skipper switches %d >= vanilla %d", skp.CSD.GroupSwitches, van.CSD.GroupSwitches)
	}
	// Skipper needs exactly clients-1 switches... plus none for the first.
	if skp.CSD.GroupSwitches != 2 {
		t.Fatalf("skipper switches = %d, want 2", skp.CSD.GroupSwitches)
	}
	var vanAvg, skpAvg time.Duration
	for i := range van.Clients {
		vanAvg += van.Clients[i].Elapsed()
		skpAvg += skp.Clients[i].Elapsed()
	}
	if skpAvg >= vanAvg {
		t.Fatalf("skipper cumulative %v >= vanilla %v", skpAvg, vanAvg)
	}
}

func TestVanillaSwitchCountMatchesModel(t *testing.T) {
	// C clients, D objects each, one group per client, pull execution:
	// the paper's model says every object access alternates groups, so
	// switches ≈ C·D.
	const C, D = 3, 6 // 3+3 segments per tenant
	res, err := buildCluster(C, ModeVanilla, 0).Run()
	if err != nil {
		t.Fatal(err)
	}
	want := C * D
	got := res.CSD.GroupSwitches
	if got < want-C || got > want {
		t.Fatalf("switches = %d, want ≈ %d", got, want)
	}
}

func TestIdealLayoutHasNoSwitches(t *testing.T) {
	cl := buildCluster(3, ModeVanilla, 0)
	cl.Layout = layout.AllInOne{}
	res, err := cl.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.CSD.GroupSwitches != 0 {
		t.Fatalf("switches = %d on all-in-one layout", res.CSD.GroupSwitches)
	}
}

func TestProcessingAndFuseAccounting(t *testing.T) {
	cl := buildCluster(1, ModeVanilla, 0)
	res, err := cl.Run()
	if err != nil {
		t.Fatal(err)
	}
	cs := res.Clients[0]
	// 6 objects scanned once each.
	if want := 6 * VanillaPerObject; cs.Processing != want {
		t.Fatalf("processing %v, want %v", cs.Processing, want)
	}
	if want := 6 * FusePerObject; cs.Fuse != want {
		t.Fatalf("fuse %v, want %v", cs.Fuse, want)
	}
	if cs.GetsIssued != 6 {
		t.Fatalf("gets %d", cs.GetsIssued)
	}
}

func TestSkipperProcessingAccounting(t *testing.T) {
	cl := buildCluster(1, ModeSkipper, 6)
	res, err := cl.Run()
	if err != nil {
		t.Fatal(err)
	}
	cs := res.Clients[0]
	if want := 6 * MJoinPerObject; cs.Processing != want {
		t.Fatalf("processing %v, want %v", cs.Processing, want)
	}
	if cs.Fuse != 0 {
		t.Fatalf("fuse %v on skipper path", cs.Fuse)
	}
	if cs.MJoin.Requests != 6 || cs.MJoin.Cycles != 1 {
		t.Fatalf("mjoin stats %+v", cs.MJoin)
	}
}

// TestDroppedArrivalIsFree: an arrival no pending subplan needs any more is
// dropped undecoded and is not charged. b's one segment filters to nothing
// and arrives first, so runtime pruning retires every subplan and a's three
// segments arrive for nothing.
func TestDroppedArrivalIsFree(t *testing.T) {
	store := make(map[segment.ObjectID]*segment.Segment)
	cat := makeTenantDB(0, 10, 3, 1, store)
	b := cat.MustTable("b")
	q := &mjoin.Query{
		ID: "dropped",
		Relations: []mjoin.Relation{
			{Table: b, Filter: expr.ColLT(b.Schema, "bk", tuple.Int(0))},
			{Table: cat.MustTable("a")},
		},
		Joins: []mjoin.JoinCond{{Rel: 1, LeftCol: "bk", RightCol: "ak"}},
	}
	c := &Client{Tenant: 0, Mode: ModeSkipper, Catalog: cat, CacheObjects: 4, Queries: []QuerySpec{{Name: "q", Join: q}}}
	res, err := (&Cluster{Clients: []*Client{c}, Store: store}).Run()
	if err != nil {
		t.Fatal(err)
	}
	cs := res.Clients[0]
	if cs.Rows != 0 || cs.MJoin.Arrivals != 4 || cs.MJoin.Pipe.Decodes != 1 {
		t.Fatalf("%d rows, %d arrivals, %d decodes; want 0, 4, 1", cs.Rows, cs.MJoin.Arrivals, cs.MJoin.Pipe.Decodes)
	}
	if cs.Processing != MJoinPerObject {
		t.Fatalf("processing %v, want one charge of %v", cs.Processing, MJoinPerObject)
	}
	if err := res.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestSkipperSmallCacheReissuesOnCluster(t *testing.T) {
	cl := buildCluster(1, ModeSkipper, 2)
	res, err := cl.Run()
	if err != nil {
		t.Fatal(err)
	}
	cs := res.Clients[0]
	if cs.GetsIssued <= 6 {
		t.Fatalf("gets = %d, expected reissues", cs.GetsIssued)
	}
	if cs.Rows != 30 {
		t.Fatalf("rows = %d, want 30 despite cache pressure", cs.Rows)
	}
}

func TestShapeStageApplies(t *testing.T) {
	store := make(map[segment.ObjectID]*segment.Segment)
	cat := makeTenantDB(0, 10, 2, 2, store)
	shape := func(in engine.Iterator) engine.Iterator {
		return engine.NewHashAgg(in, nil, []engine.AggSpec{{Kind: engine.AggCount, Name: "n"}})
	}
	for _, mode := range []Mode{ModeVanilla, ModeSkipper} {
		c := &Client{
			Tenant: 0, Mode: mode, Catalog: cat, CacheObjects: 4,
			Queries: []QuerySpec{{Name: "agg", Join: joinQuery(cat), Shape: shape}},
		}
		cl := &Cluster{Clients: []*Client{c}, Store: store}
		res, err := cl.Run()
		if err != nil {
			t.Fatal(err)
		}
		if res.Clients[0].Rows != 1 {
			t.Fatalf("%v: shaped rows = %d, want 1", mode, res.Clients[0].Rows)
		}
	}
}

func TestMultipleQueriesSequential(t *testing.T) {
	store := make(map[segment.ObjectID]*segment.Segment)
	cat := makeTenantDB(0, 10, 2, 2, store)
	c := &Client{
		Tenant: 0, Mode: ModeSkipper, Catalog: cat, CacheObjects: 4,
		Queries: []QuerySpec{
			{Name: "q1", Join: joinQuery(cat)},
			{Name: "q2", Join: joinQuery(cat)},
		},
	}
	cl := &Cluster{Clients: []*Client{c}, Store: store}
	res, err := cl.Run()
	if err != nil {
		t.Fatal(err)
	}
	cs := res.Clients[0]
	if len(cs.PerQuery) != 2 {
		t.Fatalf("per-query records %d", len(cs.PerQuery))
	}
	if cs.PerQuery[0].QueryID == cs.PerQuery[1].QueryID {
		t.Fatal("query ids not unique")
	}
}

func TestStallIntervalsRecorded(t *testing.T) {
	res, err := buildCluster(1, ModeVanilla, 0).Run()
	if err != nil {
		t.Fatal(err)
	}
	cs := res.Clients[0]
	if len(cs.StallIntervals) == 0 {
		t.Fatal("no stalls recorded")
	}
	// Stalls must be disjoint and ordered.
	ivs := append([]csd.Interval(nil), cs.StallIntervals...)
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].From < ivs[j].From })
	for i := 1; i < len(ivs); i++ {
		if ivs[i].From < ivs[i-1].To {
			t.Fatalf("overlapping stalls %v %v", ivs[i-1], ivs[i])
		}
	}
	// Total = processing + fuse + stalls for a single vanilla client.
	total := cs.Elapsed()
	if got := cs.Processing + cs.Fuse + cs.Stalled(); got != total {
		t.Fatalf("accounting gap: parts %v != total %v", got, total)
	}
}

func TestSkipperLatencyInsensitivity(t *testing.T) {
	// Figure 10's claim: Skipper's makespan barely moves as the group
	// switch latency grows, while vanilla's explodes. The claim holds
	// when transfers dominate switches (D/B >> S), so use a dataset
	// large enough for that regime.
	run := func(mode Mode, s time.Duration) time.Duration {
		store := make(map[segment.ObjectID]*segment.Segment)
		clients := make([]*Client, 3)
		for tn := 0; tn < 3; tn++ {
			cat := makeTenantDB(tn, 10, 12, 12, store)
			clients[tn] = &Client{
				Tenant: tn, Mode: mode, Catalog: cat, CacheObjects: 24,
				Queries: []QuerySpec{{Name: "q", Join: joinQuery(cat)}},
			}
		}
		cl := &Cluster{Clients: clients, Store: store}
		cfg := csd.DefaultConfig()
		cfg.GroupSwitch = s
		cl.Fleet.Device = cfg
		res, err := cl.Run()
		if err != nil {
			t.Fatal(err)
		}
		var sum time.Duration
		for _, cs := range res.Clients {
			sum += cs.Elapsed()
		}
		return sum
	}
	van10, van40 := run(ModeVanilla, 10*time.Second), run(ModeVanilla, 40*time.Second)
	skp10, skp40 := run(ModeSkipper, 10*time.Second), run(ModeSkipper, 40*time.Second)
	vanGrowth := float64(van40) / float64(van10)
	skpGrowth := float64(skp40) / float64(skp10)
	if vanGrowth < 1.5 {
		t.Fatalf("vanilla growth %.2f, expected sensitivity to S", vanGrowth)
	}
	if skpGrowth > 1.2 {
		t.Fatalf("skipper growth %.2f, expected insensitivity to S", skpGrowth)
	}
}

// getRoundTripAllocs runs one client issuing `calls` synchronous calls of
// perCall GETs each through its proxy against one device — no cache, no
// decode, no charge — and returns the allocations of the whole run, set-up
// included. A second tenant keeps `parked` requests pending on another
// group throughout: the client always has its next GET in before the
// device could switch.
func getRoundTripAllocs(t *testing.T, calls, perCall, parked int) float64 {
	store := map[segment.ObjectID]*segment.Segment{}
	assign := layout.MustAssignment(2)
	var mine, theirs []segment.ObjectID
	for i := 0; i < perCall+parked; i++ {
		id, group := segment.ObjectID{Tenant: 0, Table: "a", Index: i}, 0
		if i >= perCall {
			id, group = segment.ObjectID{Tenant: 1, Table: "b", Index: i}, 1
			theirs = append(theirs, id)
		} else {
			mine = append(mine, id)
		}
		store[id] = &segment.Segment{ID: id, NominalBytes: 1e9}
		if err := assign.Place(id, group); err != nil {
			t.Fatal(err)
		}
	}
	place, err := layout.BuildPlacement(assign, 1, layout.Replication{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	return testing.AllocsPerRun(3, func() {
		sim := vtime.NewSim()
		dev := csd.New(sim, csd.DefaultConfig(), store, assign)
		dev.Start()
		done := vtime.NewChan[int](sim, "done", 2)
		var stats ClientStats
		px := newProxy(sim, newDeviceChooser([]*csd.CSD{dev}, place), 0, &stats)
		sim.Spawn("client", func(p *vtime.Proc) {
			px.proc = p
			px.beginQuery("q")
			for i := 0; i < calls; i++ {
				px.Request(mine)
				for range mine {
					if _, err := px.NextArrival(); err != nil {
						t.Error(err)
					}
				}
			}
			if switches := dev.Stats().GroupSwitches; switches != 0 {
				t.Errorf("device switched %d times under the client: the parked requests did not stay pending", switches)
			}
			done.Send(p, 0)
		})
		sim.Spawn("parker", func(p *vtime.Proc) {
			reply := vtime.NewChan[csd.Delivery](sim, "parker.reply", parked)
			for _, id := range theirs {
				dev.Submit(p, &csd.Request{Object: id, QueryID: "parked", Tenant: 1, Reply: reply})
			}
			for range theirs {
				reply.Recv(p)
			}
			done.Send(p, 1)
		})
		sim.Spawn("coordinator", func(p *vtime.Proc) {
			done.Recv(p)
			done.Recv(p)
			dev.Shutdown(p)
		})
		if err := sim.Run(); err != nil {
			t.Error(err)
		}
		if gets := calls * perCall; stats.GetsIssued != gets || len(stats.StallIntervals) != gets {
			t.Errorf("%d GETs issued, %d stalls, want %d of each", stats.GetsIssued, len(stats.StallIntervals), gets)
		}
	})
}

// TestGetRoundTripAllocs: a call through proxy.Request, the device's
// controller and stream worker and back through NextArrival allocates
// nothing once warm — the proxy writes its GETs into scratch, the device
// copies them into requests it recycles — but, amortized, the growth of
// the stall-interval record; and nothing that scales with what else is
// pending.
func TestGetRoundTripAllocs(t *testing.T) {
	const warm, extra = 200, 2000 // GETs
	perGet := func(perCall, parked int) float64 {
		calls := func(gets int) int { return gets / perCall }
		return (getRoundTripAllocs(t, calls(warm+extra), perCall, parked) - getRoundTripAllocs(t, calls(warm), perCall, parked)) / extra
	}
	alone, crowded, batched := perGet(1, 0), perGet(1, 64), perGet(8, 0)
	t.Logf("allocations per GET: %.3f alone, %.3f with 64 requests pending on another group, %.3f in calls of 8", alone, crowded, batched)
	for _, c := range []struct {
		name string
		got  float64
	}{{"alone", alone}, {"with 64 requests pending on another group", crowded}, {"in calls of 8", batched}} {
		if c.got > 0.05 {
			t.Errorf("%.3f allocations per warm GET %s, want amortized record growth only (at most 0.05)", c.got, c.name)
		}
	}
}
