package layout

import (
	"errors"
	"slices"
	"testing"

	"repro/internal/segment"
)

func TestParseReplication(t *testing.T) {
	cases := []struct {
		in   string
		want Replication
		ok   bool
	}{
		{"", Replication{}, true},
		{"none", Replication{}, true},
		{"full", Replication{Kind: ReplicateFull}, true},
		{"hot", Replication{Kind: ReplicateHot}, true},
		{"hot:3", Replication{Kind: ReplicateHot, Hot: 3}, true},
		{"hot:0", Replication{}, false},
		{"hot:x", Replication{}, false},
		{"mirrored", Replication{}, false},
	}
	for _, c := range cases {
		got, err := ParseReplication(c.in)
		if c.ok != (err == nil) || got != c.want {
			t.Fatalf("ParseReplication(%q) = %v, %v; want %v ok=%v", c.in, got, err, c.want, c.ok)
		}
		if c.ok {
			back, err := ParseReplication(got.String())
			if err != nil || back != got {
				t.Fatalf("round trip %q -> %q: %v, %v", c.in, got.String(), back, err)
			}
		}
	}
}

func TestPlacementPrimaries(t *testing.T) {
	tens := []TenantObjects{tenant(0, 4), tenant(1, 4)}
	a := mustAssign(t, RoundRobinObjects{NumGroups: 4}, tens)
	p, err := BuildPlacement(a, 2, Replication{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if p.NumDevices() != 2 || p.ReplicatedObjects() != 0 {
		t.Fatalf("devices %d replicated %d", p.NumDevices(), p.ReplicatedObjects())
	}
	// Primary device = group % devices; every object on exactly one device.
	perDev := make([]int, 2)
	a.Each(func(id segment.ObjectID, g int) {
		devs := p.DevicesFor(id)
		if len(devs) != 1 || devs[0] != g%2 {
			t.Fatalf("object %v group %d on devices %v", id, g, devs)
		}
		perDev[devs[0]]++
	})
	if perDev[0] == 0 || perDev[1] == 0 {
		t.Fatalf("uneven placement %v: a multi-group layout must use both devices", perDev)
	}
	// Device assignments are filtered views with global group ids.
	for d := 0; d < 2; d++ {
		da, err := p.DeviceAssignment(d)
		if err != nil {
			t.Fatal(err)
		}
		if da.NumGroups() != a.NumGroups() {
			t.Fatalf("device %d has %d groups, want %d", d, da.NumGroups(), a.NumGroups())
		}
		if da.NumObjects() != perDev[d] {
			t.Fatalf("device %d holds %d objects, want %d", d, da.NumObjects(), perDev[d])
		}
		da.Each(func(id segment.ObjectID, g int) {
			global, err := a.GroupOf(id)
			if err != nil || g != global {
				t.Fatalf("device %d sees %v in group %d, global %d (%v)", d, id, g, global, err)
			}
		})
	}
}

func TestPlacementFullReplication(t *testing.T) {
	tens := []TenantObjects{tenant(0, 6)}
	a := mustAssign(t, RoundRobinObjects{NumGroups: 3}, tens)
	p, err := BuildPlacement(a, 3, Replication{Kind: ReplicateFull}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if p.ReplicatedObjects() != 6 {
		t.Fatalf("replicated %d, want 6", p.ReplicatedObjects())
	}
	a.Each(func(id segment.ObjectID, g int) {
		devs := p.DevicesFor(id)
		if len(devs) != 3 || devs[0] != g%3 {
			t.Fatalf("object %v on devices %v (group %d)", id, devs, g)
		}
	})
}

func TestPlacementHotReplication(t *testing.T) {
	tens := []TenantObjects{tenant(0, 6)}
	a := mustAssign(t, RoundRobinObjects{NumGroups: 2}, tens)
	heat := map[segment.ObjectID]int{
		tens[0].Objects[0]: 5,
		tens[0].Objects[1]: 3,
		tens[0].Objects[2]: 0, // cold: never replicated, even by hot:N
	}
	p, err := BuildPlacement(a, 2, Replication{Kind: ReplicateHot, Hot: 1}, heat)
	if err != nil {
		t.Fatal(err)
	}
	if p.ReplicatedObjects() != 1 {
		t.Fatalf("replicated %d, want 1 (hot:1)", p.ReplicatedObjects())
	}
	devs := p.DevicesFor(tens[0].Objects[0])
	if len(devs) != 2 {
		t.Fatalf("hottest object on devices %v, want both", devs)
	}
	if pd, _ := p.PrimaryFor(tens[0].Objects[0]); pd != devs[0] {
		t.Fatalf("primary %d != devs[0] %d", pd, devs[0])
	}
	// Hot <= 0 replicates the whole positive-heat working set.
	p2, err := BuildPlacement(a, 2, Replication{Kind: ReplicateHot}, heat)
	if err != nil {
		t.Fatal(err)
	}
	if p2.ReplicatedObjects() != 2 {
		t.Fatalf("replicated %d, want 2 (all hot)", p2.ReplicatedObjects())
	}
}

func TestPlacementSingleDeviceReplicationIsNoop(t *testing.T) {
	a := mustAssign(t, RoundRobinObjects{NumGroups: 4}, []TenantObjects{tenant(0, 4)})
	p, err := BuildPlacement(a, 1, Replication{Kind: ReplicateFull}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if p.ReplicatedObjects() != 0 {
		t.Fatalf("one device cannot replicate, got %d", p.ReplicatedObjects())
	}
	a.Each(func(id segment.ObjectID, _ int) {
		if devs := p.DevicesFor(id); len(devs) != 1 || devs[0] != 0 {
			t.Fatalf("object %v on devices %v", id, devs)
		}
	})
}

func TestBuildPlacementValidation(t *testing.T) {
	a := mustAssign(t, AllInOne{}, []TenantObjects{tenant(0, 1)})
	var pe *PolicyError
	if _, err := BuildPlacement(a, 0, Replication{}, nil); !errors.As(err, &pe) {
		t.Fatalf("zero devices accepted: %v", err)
	}
	var re *GroupRangeError
	p, err := BuildPlacement(a, 1, Replication{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.DeviceAssignment(1); !errors.As(err, &re) {
		t.Fatalf("out-of-range device accepted: %v", err)
	}
	if _, err := p.PrimaryFor(segment.ObjectID{Table: "missing"}); err == nil {
		t.Fatal("unplaced object primary lookup succeeded")
	}
}

// TestHotObjectsOrder pins the ranking: count descending, then the id's
// text ascending — so tenant 10 sorts before tenant 2, and index 10000
// before index 9999.
func TestHotObjectsOrder(t *testing.T) {
	id := func(tenant int, table string, index int) segment.ObjectID {
		return segment.ObjectID{Tenant: tenant, Table: table, Index: index}
	}
	heat := map[segment.ObjectID]int{
		id(2, "orders", 0):       3,
		id(10, "orders", 0):      3,
		id(1, "orders", 0):       3,
		id(1, "lineitem", 9999):  3,
		id(1, "lineitem", 10000): 3,
		id(3, "region", 0):       7,
		id(0, "nation", 0):       1,
		id(0, "part", 0):         0,
	}
	want := []segment.ObjectID{
		id(3, "region", 0),
		id(1, "lineitem", 10000),
		id(1, "lineitem", 9999),
		id(1, "orders", 0),
		id(10, "orders", 0),
		id(2, "orders", 0),
		id(0, "nation", 0),
	}
	for i := 0; i < 50; i++ { // map order differs from run to run
		if got := hotObjects(heat, 0); !slices.Equal(got, want) {
			t.Fatalf("hot objects %v, want %v", got, want)
		}
	}
	if got := hotObjects(heat, 3); !slices.Equal(got, want[:3]) {
		t.Fatalf("top 3 %v, want %v", got, want[:3])
	}
}
