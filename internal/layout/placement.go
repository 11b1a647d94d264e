package layout

import (
	"fmt"

	"repro/internal/segment"
)

// This file is the scale-out half of the package: once a Policy has
// mapped objects to disk groups, a Placement maps those groups onto a
// fleet of devices and decides which objects exist on more than one of
// them. Groups keep their global ids on every device — a device's
// Assignment is a filtered view of the cluster-wide one, holding only
// the objects that device stores — so per-device schedulers keep their
// existing contract (they only ever see groups with pending requests).

// Replication selects how many devices hold each object.
type Replication uint8

const (
	// ReplicateNone stores each object only on its primary device.
	ReplicateNone Replication = iota
	// ReplicateFull stores every object on every device.
	ReplicateFull
)

// String renders the policy in the form ParseReplication accepts.
func (r Replication) String() string {
	if r == ReplicateFull {
		return "full"
	}
	return "none"
}

// ParseReplication parses "none" (or "") and "full" — the grammar of the
// CLIs' -replication flag.
func ParseReplication(s string) (Replication, error) {
	switch s {
	case "", "none":
		return ReplicateNone, nil
	case "full":
		return ReplicateFull, nil
	default:
		return ReplicateNone, fmt.Errorf("layout: unknown replication %q (want none or full)", s)
	}
}

// Placement maps every object of a cluster-wide Assignment onto one or
// more devices. Device ids are [0, NumDevices); an object's primary is
// its group modulo the device count, so a multi-group layout spreads
// groups — and therefore group-switch work — across the fleet.
type Placement struct {
	devices    int
	replicas   map[segment.ObjectID][]int // devices holding the object, primary first
	perDevice  []*Assignment
	replicated int
}

// BuildPlacement spreads the assignment's groups over `devices` devices
// and applies the replication policy. A non-positive device count is a
// *PolicyError.
func BuildPlacement(a *Assignment, devices int, rep Replication) (*Placement, error) {
	if devices <= 0 {
		return nil, &PolicyError{Policy: "BuildPlacement", Reason: fmt.Sprintf("device count %d must be positive", devices)}
	}
	if rep != ReplicateNone && rep != ReplicateFull {
		return nil, &PolicyError{Policy: "BuildPlacement", Reason: fmt.Sprintf("unknown replication %d", rep)}
	}
	p := &Placement{
		devices:   devices,
		replicas:  make(map[segment.ObjectID][]int, a.NumObjects()),
		perDevice: make([]*Assignment, devices),
	}
	for d := range p.perDevice {
		p.perDevice[d] = MustAssignment(a.NumGroups())
	}
	// One slab backs every replica list, with room for every device under
	// full replication.
	per := 1
	if devices > 1 && rep == ReplicateFull {
		per = devices
	}
	slab := make([]int, a.NumObjects()*per)
	var err error
	a.Each(func(id segment.ObjectID, g int) {
		if err != nil {
			return
		}
		primary := g % devices
		devs := append(slab[:0:per], primary)
		slab = slab[per:]
		for d := 0; d < devices && len(devs) < per; d++ {
			if d != primary {
				devs = append(devs, d)
			}
		}
		p.replicas[id] = devs
		for _, d := range devs {
			if err = p.perDevice[d].Place(id, g); err != nil {
				return
			}
		}
	})
	if err != nil {
		return nil, err
	}
	if per > 1 {
		p.replicated = a.NumObjects()
	}
	return p, nil
}

// NumDevices returns the fleet size.
func (p *Placement) NumDevices() int { return p.devices }

// ReplicatedObjects returns how many objects exist on more than one
// device.
func (p *Placement) ReplicatedObjects() int { return p.replicated }

// DevicesFor returns the devices holding the object, primary first. The
// slice is the placement's own — callers must not mutate it. Unknown
// objects return nil.
func (p *Placement) DevicesFor(id segment.ObjectID) []int { return p.replicas[id] }

// PrimaryFor returns the object's primary device.
func (p *Placement) PrimaryFor(id segment.ObjectID) (int, error) {
	devs := p.replicas[id]
	if len(devs) == 0 {
		return 0, fmt.Errorf("layout: object %v not placed on any device", id)
	}
	return devs[0], nil
}

// DeviceAssignment returns device d's filtered view of the cluster
// assignment: only the objects stored there, with their global group
// ids. A device id outside [0, NumDevices()) is a *GroupRangeError.
func (p *Placement) DeviceAssignment(d int) (*Assignment, error) {
	if d < 0 || d >= p.devices {
		return nil, &GroupRangeError{Op: "DeviceAssignment", Group: d, NumGroups: p.devices}
	}
	return p.perDevice[d], nil
}
