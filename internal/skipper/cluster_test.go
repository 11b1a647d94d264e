package skipper

import (
	"reflect"
	"strings"
	"sync"
	"testing"

	"repro/internal/csd"
	"repro/internal/mjoin"
	"repro/internal/segment"
)

func TestClusterRequiresClients(t *testing.T) {
	cl := &Cluster{Store: map[segment.ObjectID]*segment.Segment{}}
	if _, err := cl.Run(); err == nil {
		t.Fatal("empty cluster accepted")
	}
}

func TestClusterPropagatesPlanErrors(t *testing.T) {
	store := make(map[segment.ObjectID]*segment.Segment)
	cat := makeTenantDB(0, 5, 2, 2, store)
	badQuery := &mjoin.Query{
		ID:        "bad",
		Relations: []mjoin.Relation{{Table: cat.MustTable("a")}, {Table: cat.MustTable("b")}},
		Joins:     []mjoin.JoinCond{{Rel: 1, LeftCol: "nope", RightCol: "bk"}},
	}
	for _, mode := range []Mode{ModeVanilla, ModeSkipper} {
		c := &Client{Tenant: 0, Mode: mode, Catalog: cat, CacheObjects: 4,
			Queries: []QuerySpec{{Name: "bad", Join: badQuery}}}
		cl := &Cluster{Clients: []*Client{c}, Store: store}
		_, err := cl.Run()
		if err == nil {
			t.Fatalf("%v: bad join column accepted", mode)
		}
		if !strings.Contains(err.Error(), "nope") {
			t.Fatalf("%v: unhelpful error %v", mode, err)
		}
	}
}

func TestClusterUnknownModeFails(t *testing.T) {
	store := make(map[segment.ObjectID]*segment.Segment)
	cat := makeTenantDB(0, 5, 2, 2, store)
	c := &Client{Tenant: 0, Mode: Mode(99), Catalog: cat,
		Queries: []QuerySpec{{Name: "q", Join: joinQuery(cat)}}}
	if _, err := (&Cluster{Clients: []*Client{c}, Store: store}).Run(); err == nil {
		t.Fatal("unknown mode accepted")
	}
}

// TestMalformedRetryPolicyFailsTheRun: a hand-built client whose retry
// policy Validate rejects fails Cluster.Run before the simulation starts,
// with an error, where it used to panic inside the client's process.
func TestMalformedRetryPolicyFailsTheRun(t *testing.T) {
	cl := buildCluster(1, ModeSkipper, 6)
	cl.Clients[0].Retry = &RetryPolicy{}
	if res, err := cl.Run(); err == nil || res != nil {
		t.Fatalf("zero retry policy: result %+v, error %v", res, err)
	}
}

// TestOptionsValidate: the zero Options and DefaultRetryPolicy are valid;
// each malformed setting is rejected.
func TestOptionsValidate(t *testing.T) {
	if err := (Options{Retry: DefaultRetryPolicy()}).Validate(); err != nil {
		t.Fatalf("default options rejected: %v", err)
	}
	for _, o := range []Options{
		{Mode: Mode(2)},
		{CacheObjects: -1},
		{PrefetchBytes: -1},
		{Retry: &RetryPolicy{}},
		{Retry: &RetryPolicy{MaxAttempts: 1, MaxBackoff: -1}},
	} {
		if err := o.Validate(); err == nil {
			t.Errorf("%+v (retry %+v) accepted", o, o.Retry)
		}
	}
}

// TestOptionsClientSetsEveryOption: each Options field is a Client field
// of the same name, and Options.Client copies it.
func TestOptionsClientSetsEveryOption(t *testing.T) {
	o := Options{Mode: ModeSkipper, CacheObjects: 3, NoStatsPruning: true, PrefetchBytes: 2e9,
		Retry: DefaultRetryPolicy()}
	ov, cv := reflect.ValueOf(o), reflect.ValueOf(o.Client(4, nil, nil)).Elem()
	for i := 0; i < ov.NumField(); i++ {
		name := ov.Type().Field(i).Name
		if ov.Field(i).IsZero() {
			t.Errorf("the test leaves %s at its zero value", name)
		}
		if f := cv.FieldByName(name); !f.IsValid() || f.Interface() != ov.Field(i).Interface() {
			t.Errorf("Client.%s does not carry Options.%s", name, name)
		}
	}
}

func TestClientWithNoQueriesFinishesImmediately(t *testing.T) {
	store := make(map[segment.ObjectID]*segment.Segment)
	cat := makeTenantDB(0, 5, 2, 2, store)
	c := &Client{Tenant: 0, Mode: ModeSkipper, Catalog: cat}
	res, err := (&Cluster{Clients: []*Client{c}, Store: store}).Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Clients[0].Elapsed() != 0 || res.Makespan != 0 {
		t.Fatalf("idle client took %v", res.Clients[0].Elapsed())
	}
}

// TestClusterDeterminism: identical inputs produce bit-identical timing
// and statistics (the vtime kernel's core guarantee, end to end).
func TestClusterDeterminism(t *testing.T) {
	run := func() *RunResult {
		res, err := buildCluster(3, ModeSkipper, 5).Run()
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(), run()
	if a.Makespan != b.Makespan {
		t.Fatalf("makespans differ: %v vs %v", a.Makespan, b.Makespan)
	}
	if a.CSD.GroupSwitches != b.CSD.GroupSwitches || a.CSD.GetsReceived != b.CSD.GetsReceived {
		t.Fatalf("CSD stats differ: %+v vs %+v", a.CSD, b.CSD)
	}
	for i := range a.Clients {
		if a.Clients[i].Elapsed() != b.Clients[i].Elapsed() {
			t.Fatalf("client %d elapsed differs", i)
		}
		if a.Clients[i].Processing != b.Clients[i].Processing {
			t.Fatalf("client %d processing differs", i)
		}
	}
}

// TestConservationLaws: what clients request equals what the device
// receives and serves; bytes served match object sizes.
func TestConservationLaws(t *testing.T) {
	for _, mode := range []Mode{ModeVanilla, ModeSkipper} {
		res, err := buildCluster(3, mode, 4).Run()
		if err != nil {
			t.Fatal(err)
		}
		gets := 0
		for _, cs := range res.Clients {
			gets += cs.GetsIssued
		}
		if res.CSD.GetsReceived != gets {
			t.Fatalf("%v: device saw %d GETs, clients issued %d", mode, res.CSD.GetsReceived, gets)
		}
		if res.CSD.ObjectsServed != gets {
			t.Fatalf("%v: served %d != requested %d", mode, res.CSD.ObjectsServed, gets)
		}
		if res.CSD.BytesServed != int64(gets)*1e9 {
			t.Fatalf("%v: bytes %d", mode, res.CSD.BytesServed)
		}
	}
}

// TestModeString: names round-trip through ParseMode, unknown names are
// refused (a typo must not select an engine) and unknown values do not
// render as a real engine.
func TestModeString(t *testing.T) {
	for _, tc := range []struct {
		name string
		mode Mode
		ok   bool
	}{
		{"vanilla", ModeVanilla, true},
		{"skipper", ModeSkipper, true},
		{"vanila", 0, false},
		{"Skipper", 0, false},
		{"local", 0, false},
		{"", 0, false},
	} {
		got, err := ParseMode(tc.name)
		if (err == nil) != tc.ok || got != tc.mode {
			t.Errorf("ParseMode(%q) = %v, %v; want %v, ok=%v", tc.name, got, err, tc.mode, tc.ok)
		}
		if tc.ok && got.String() != tc.name {
			t.Errorf("%v.String() = %q, want %q", tc.mode, got.String(), tc.name)
		}
	}
	if got := Mode(99).String(); got != "Mode(99)" {
		t.Errorf("Mode(99).String() = %q", got)
	}
}

func TestEnergyIntegration(t *testing.T) {
	// Vanilla's pull pattern burns far more switch events, so under the
	// Pelican power model it consumes more switch-surge energy for the
	// same workload.
	pm := csd.PelicanPower()
	energies := map[Mode]float64{}
	for _, mode := range []Mode{ModeVanilla, ModeSkipper} {
		cl := buildCluster(3, mode, 6)
		res, err := cl.Run()
		if err != nil {
			t.Fatal(err)
		}
		energies[mode] = pm.Energy(res.CSD, res.Makespan)
	}
	if energies[ModeSkipper] >= energies[ModeVanilla] {
		t.Fatalf("skipper energy %.0f J >= vanilla %.0f J", energies[ModeSkipper], energies[ModeVanilla])
	}
}

func TestThinkTimeZeroHasNoGap(t *testing.T) {
	store := make(map[segment.ObjectID]*segment.Segment)
	cat := makeTenantDB(0, 5, 2, 2, store)
	c := &Client{Tenant: 0, Mode: ModeSkipper, Catalog: cat, CacheObjects: 4,
		Queries: []QuerySpec{
			{Name: "q1", Join: joinQuery(cat)},
			{Name: "q2", Join: joinQuery(cat)},
		}}
	res, err := (&Cluster{Clients: []*Client{c}, Store: store}).Run()
	if err != nil {
		t.Fatal(err)
	}
	pq := res.Clients[0].PerQuery
	if pq[1].Start != pq[0].Finish {
		t.Fatalf("gap between queries: %v -> %v", pq[0].Finish, pq[1].Start)
	}
}

// TestFleetRunsShareOnePlacement: a Fleet is placed once and read by every
// run. Four concurrent runs of fresh clients on one fleet each reproduce
// Cluster.Run's result, device by device, and Cluster.Run leaves the
// caller's struct as it found it (no Layout default written in).
func TestFleetRunsShareOnePlacement(t *testing.T) {
	cl := buildCluster(3, ModeSkipper, 5)
	cl.Fleet = FleetSpec{N: 2}
	want, err := cl.Run()
	if err != nil {
		t.Fatal(err)
	}
	if cl.Layout != nil {
		t.Fatalf("Cluster.Run wrote into the cluster: layout %v", cl.Layout)
	}
	f, err := NewFleet(cl.Fleet, nil, cl.Store, cl.Clients)
	if err != nil {
		t.Fatal(err)
	}
	results := make([]*RunResult, 4)
	errs := make([]error, len(results))
	var wg sync.WaitGroup
	for i := range results {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			clients := make([]*Client, len(cl.Clients))
			for j, c := range cl.Clients {
				clients[j] = &Client{Tenant: c.Tenant, Mode: c.Mode, Catalog: c.Catalog, CacheObjects: c.CacheObjects, Queries: c.Queries}
			}
			results[i], errs[i] = f.Run(clients, nil)
		}(i)
	}
	wg.Wait()
	for i, got := range results {
		if errs[i] != nil {
			t.Fatal(errs[i])
		}
		if got.Makespan != want.Makespan || len(got.Devices) != 2 {
			t.Fatalf("run %d: makespan %v on %d devices, want %v on 2", i, got.Makespan, len(got.Devices), want.Makespan)
		}
		for d, st := range got.Devices {
			if w := want.Devices[d]; st.GetsReceived != w.GetsReceived || st.GroupSwitches != w.GroupSwitches || w.GetsReceived == 0 {
				t.Fatalf("run %d device %d: %d GETs, %d switches; want %d, %d", i, d, st.GetsReceived, st.GroupSwitches, w.GetsReceived, w.GroupSwitches)
			}
		}
		for j, cs := range got.Clients {
			if w := want.Clients[j]; cs.Rows != w.Rows || cs.Elapsed() != w.Elapsed() {
				t.Fatalf("run %d tenant %d: %d rows in %v, want %d in %v", i, cs.Tenant, cs.Rows, cs.Elapsed(), w.Rows, w.Elapsed())
			}
		}
		if err := got.CheckInvariants(); err != nil {
			t.Fatalf("run %d: %v", i, err)
		}
	}
}
