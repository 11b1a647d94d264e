package layout

import (
	"fmt"
	"sort"
	"strconv"
	"strings"

	"repro/internal/segment"
)

// This file is the scale-out half of the package: once a Policy has
// mapped objects to disk groups, a Placement maps those groups onto a
// fleet of devices and decides which objects exist on more than one of
// them. Groups keep their global ids on every device — a device's
// Assignment is a filtered view of the cluster-wide one, holding only
// the objects that device stores — so per-device schedulers keep their
// existing contract (they only ever see groups with pending requests).

// ReplicationKind selects how many devices hold each object.
type ReplicationKind uint8

const (
	// ReplicateNone stores each object only on its primary device.
	ReplicateNone ReplicationKind = iota
	// ReplicateHot additionally stores the hottest objects — ranked by
	// access count from the workload's statistics — on one extra device.
	ReplicateHot
	// ReplicateFull stores every object on every device.
	ReplicateFull
)

// Replication is a placement's replication policy.
type Replication struct {
	Kind ReplicationKind
	// Hot caps how many objects ReplicateHot replicates: the top Hot by
	// access count (ties broken by object id for determinism). Hot <= 0
	// means "every object with a positive access count" — in a
	// repeated-query workload, exactly the demanded working set.
	Hot int
}

// String renders the policy in the form ParseReplication accepts.
func (r Replication) String() string {
	switch r.Kind {
	case ReplicateFull:
		return "full"
	case ReplicateHot:
		if r.Hot > 0 {
			return fmt.Sprintf("hot:%d", r.Hot)
		}
		return "hot"
	default:
		return "none"
	}
}

// ParseReplication parses "none", "full", "hot" (all demanded objects)
// or "hot:N" (top N by access count) — the grammar of the CLIs'
// -replication flag.
func ParseReplication(s string) (Replication, error) {
	switch {
	case s == "" || s == "none":
		return Replication{}, nil
	case s == "full":
		return Replication{Kind: ReplicateFull}, nil
	case s == "hot":
		return Replication{Kind: ReplicateHot}, nil
	case strings.HasPrefix(s, "hot:"):
		n, err := strconv.Atoi(strings.TrimPrefix(s, "hot:"))
		if err != nil || n <= 0 {
			return Replication{}, fmt.Errorf("layout: replication %q: want hot:N with N >= 1", s)
		}
		return Replication{Kind: ReplicateHot, Hot: n}, nil
	default:
		return Replication{}, fmt.Errorf("layout: unknown replication %q (want none, hot, hot:N or full)", s)
	}
}

// Placement maps every object of a cluster-wide Assignment onto one or
// more devices. Device ids are [0, NumDevices); an object's primary is
// its group modulo the device count, so a multi-group layout spreads
// groups — and therefore group-switch work — across the fleet.
type Placement struct {
	devices    int
	rep        Replication
	replicas   map[segment.ObjectID][]int // devices holding the object, primary first
	perDevice  []*Assignment
	replicated int
}

// BuildPlacement spreads the assignment's groups over `devices` devices
// and applies the replication policy. heat gives per-object access
// counts (from workload statistics) and is consulted only by
// ReplicateHot; nil heat means nothing is hot. A non-positive device
// count is a *PolicyError.
func BuildPlacement(a *Assignment, devices int, rep Replication, heat map[segment.ObjectID]int) (*Placement, error) {
	if devices <= 0 {
		return nil, &PolicyError{Policy: "BuildPlacement", Reason: fmt.Sprintf("device count %d must be positive", devices)}
	}
	p := &Placement{
		devices:   devices,
		rep:       rep,
		replicas:  make(map[segment.ObjectID][]int, a.NumObjects()),
		perDevice: make([]*Assignment, devices),
	}
	for d := range p.perDevice {
		p.perDevice[d] = MustAssignment(a.NumGroups())
	}
	// One slab backs every replica list: room for every device under full
	// replication, and a spare tail where a hot object's list moves to take
	// its second device.
	per, hot := 1, []segment.ObjectID(nil)
	if devices > 1 && rep.Kind == ReplicateFull {
		per = devices
	} else if devices > 1 && rep.Kind == ReplicateHot {
		hot = hotObjects(heat, rep.Hot)
	}
	slab := make([]int, a.NumObjects()*per+2*len(hot))
	place := func(id segment.ObjectID, group, dev int) error {
		devs := p.replicas[id]
		if len(devs) == cap(devs) {
			room := max(per, len(devs)+1)
			devs, slab = append(slab[:0:room], devs...), slab[room:]
		}
		p.replicas[id] = append(devs, dev)
		return p.perDevice[dev].Place(id, group)
	}
	var err error
	a.Each(func(id segment.ObjectID, g int) {
		if err != nil {
			return
		}
		err = place(id, g, g%devices)
	})
	if err != nil {
		return nil, err
	}
	switch rep.Kind {
	case ReplicateNone:
	case ReplicateFull:
		if devices > 1 {
			a.Each(func(id segment.ObjectID, g int) {
				if err != nil {
					return
				}
				primary := g % devices
				for d := 0; d < devices; d++ {
					if d == primary {
						continue
					}
					err = place(id, g, d)
				}
			})
			if err != nil {
				return nil, err
			}
			p.replicated = a.NumObjects()
		}
	case ReplicateHot:
		if devices > 1 {
			for _, id := range hot {
				g, gerr := a.GroupOf(id)
				if gerr != nil {
					continue // hot object outside this assignment: nothing to replicate
				}
				primary := g % devices
				if err := place(id, g, (primary+1)%devices); err != nil {
					return nil, err
				}
				p.replicated++
			}
		}
	default:
		return nil, &PolicyError{Policy: "BuildPlacement", Reason: fmt.Sprintf("unknown replication kind %d", rep.Kind)}
	}
	return p, nil
}

// hotObjects ranks the heat map's objects by count descending (object
// id ascending on ties, so the selection is deterministic) and returns
// the top n; n <= 0 returns every object with a positive count.
func hotObjects(heat map[segment.ObjectID]int, n int) []segment.ObjectID {
	ids := make([]segment.ObjectID, 0, len(heat))
	keys := make(map[segment.ObjectID]string, len(heat)) // each id's text, rendered once
	for id, c := range heat {
		if c > 0 {
			ids = append(ids, id)
			keys[id] = id.String()
		}
	}
	sort.Slice(ids, func(i, j int) bool {
		if heat[ids[i]] != heat[ids[j]] {
			return heat[ids[i]] > heat[ids[j]]
		}
		return keys[ids[i]] < keys[ids[j]]
	})
	if n > 0 && len(ids) > n {
		ids = ids[:n]
	}
	return ids
}

// NumDevices returns the fleet size.
func (p *Placement) NumDevices() int { return p.devices }

// Replication returns the policy the placement was built with.
func (p *Placement) Replication() Replication { return p.rep }

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
