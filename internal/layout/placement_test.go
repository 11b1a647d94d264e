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
		{"", ReplicateNone, true},
		{"none", ReplicateNone, true},
		{"full", ReplicateFull, true},
		{"hot", ReplicateNone, false},
		{"mirrored", ReplicateNone, false},
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
	p, err := BuildPlacement(a, 2, ReplicateNone)
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
	p, err := BuildPlacement(a, 3, ReplicateFull)
	if err != nil {
		t.Fatal(err)
	}
	if p.ReplicatedObjects() != 6 {
		t.Fatalf("replicated %d, want 6", p.ReplicatedObjects())
	}
	// Primary first, then the other devices in ascending order: the order
	// the chooser and failover try replicas in.
	a.Each(func(id segment.ObjectID, g int) {
		want := append([]int{g % 3}, slices.DeleteFunc([]int{0, 1, 2}, func(d int) bool { return d == g%3 })...)
		if devs := p.DevicesFor(id); !slices.Equal(devs, want) {
			t.Fatalf("object %v on devices %v (group %d), want %v", id, devs, g, want)
		}
	})
	for d := 0; d < 3; d++ {
		if da, err := p.DeviceAssignment(d); err != nil || da.NumObjects() != 6 {
			t.Fatalf("device %d does not hold every object: %v", d, err)
		}
	}
}

func TestPlacementSingleDeviceReplicationIsNoop(t *testing.T) {
	a := mustAssign(t, RoundRobinObjects{NumGroups: 4}, []TenantObjects{tenant(0, 4)})
	p, err := BuildPlacement(a, 1, ReplicateFull)
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
	if _, err := BuildPlacement(a, 0, ReplicateNone); !errors.As(err, &pe) {
		t.Fatalf("zero devices accepted: %v", err)
	}
	if _, err := BuildPlacement(a, 2, Replication(7)); !errors.As(err, &pe) {
		t.Fatalf("unknown replication accepted: %v", err)
	}
	var re *GroupRangeError
	p, err := BuildPlacement(a, 1, ReplicateNone)
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
