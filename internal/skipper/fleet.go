package skipper

import (
	"fmt"
	"sync"

	"repro/internal/csd"
	"repro/internal/faults"
	"repro/internal/layout"
	"repro/internal/segment"
	"repro/internal/trace"
)

// FleetSpec describes the devices a cluster's clients share: how many,
// how each is configured, which objects live on more than one, and what
// goes wrong. It is a description, not a set of live parts — NewFleet
// expands it into a Fleet, so the same value can be run any number of
// times (and by any number of goroutines) with identical, replayable
// results.
type FleetSpec struct {
	// Device configures every device of the fleet. A Device that sets
	// none of GroupSwitch, Bandwidth and Scheduler means
	// csd.DefaultConfig; otherwise it runs as given, a nil Scheduler
	// meaning the rank-based one, and its Bandwidth must be positive. ID,
	// Faults and Trace are stamped per device by each run — Trace from
	// Cluster.Run's spec, or the lane Fleet.Run is given — so a Fleet never
	// holds a recorder; Faults must be left nil.
	Device csd.Config
	// N is the fleet size; 0 means 1, the classic single-device testbed.
	// With more, disk groups spread across the devices (primary device =
	// group mod N) and GETs fan out per placement.
	N int
	// Replication selects whether a fleet's objects live on one device
	// (layout.ReplicateNone, the default) or on every device
	// (layout.ReplicateFull). A replica serves GETs when the chooser
	// prefers it and takes over when the primary's device crashes. No
	// effect on a single device.
	Replication layout.Replication
	// Faults, when non-nil, is the fault plan every device runs. Each run
	// builds one fresh injector per device from it: decisions are a pure
	// function of (seed, object, attempt), so every run replays the same
	// schedule on its own virtual clock. The crash window is confined to
	// device 0 — a replicated fleet then always has a live side to fail
	// over to — while the transfer-level rates apply on every device. A
	// plan that enables nothing is the same as nil.
	Faults *faults.Plan
}

// device is the configuration every device of the fleet runs, before the
// per-run stamps: Device, or csd.DefaultConfig when Device sets nothing.
func (fs *FleetSpec) device() csd.Config {
	if d := fs.Device; d.GroupSwitch == 0 && d.Bandwidth == 0 && d.Scheduler == nil {
		return csd.DefaultConfig()
	}
	return fs.Device
}

// Validate rejects a spec Run could not expand: a caller-built injector, a
// device with no bandwidth or a negative switch latency, a negative fleet
// size, an invalid fault plan.
func (fs *FleetSpec) Validate() error {
	if fs.Device.Faults != nil {
		return fmt.Errorf("skipper: FleetSpec.Device.Faults is set; describe faults with FleetSpec.Faults")
	}
	if d := fs.device(); !(d.Bandwidth > 0) {
		return fmt.Errorf("skipper: device bandwidth %g bytes/s is not positive", d.Bandwidth)
	} else if d.GroupSwitch < 0 {
		return fmt.Errorf("skipper: device group switch %v < 0", d.GroupSwitch)
	}
	if fs.N < 0 {
		return fmt.Errorf("skipper: fleet of %d devices", fs.N)
	}
	if fs.Faults != nil {
		if err := fs.Faults.Validate(); err != nil {
			return fmt.Errorf("skipper: %w", err)
		}
	}
	return nil
}

// deviceInjector builds device d's fresh injector from a validated plan.
func deviceInjector(plan faults.Plan, d int) *faults.Injector {
	if d > 0 {
		plan.CrashAt, plan.CrashDowntime = 0, 0
	}
	return faults.MustNew(plan)
}

// Fleet is the shared half of a cluster run: the completed device
// configuration, the fault plan (nil when it enables nothing), the layout
// of the clients' objects on disk groups and devices, and the store the
// devices serve. Nothing writes to those after NewFleet, so any number of
// runs, concurrent ones included, share one. Its one mutable part is the
// list of idle run kernels (simulator, devices, proxies) that clean runs
// leave behind: each run takes one, or builds one, and resets it, so every
// run still starts at virtual time 0 on devices with no group loaded.
type Fleet struct {
	dev     csd.Config // ID, Faults and Trace stamped per run
	plan    *faults.Plan
	place   *layout.Placement
	assigns []*layout.Assignment // per device
	store   map[segment.ObjectID]*segment.Segment

	mu   sync.Mutex
	idle []*fleetRun
}

// NewFleet expands the spec for the clients' catalogs: policy (nil means
// layout.OnePerGroup) assigns their objects to disk groups, and the
// placement spreads the groups over the devices. Only the clients'
// catalogs are read, never their queries, so a fleet serves any queries
// over those catalogs.
func NewFleet(spec FleetSpec, policy layout.Policy, store map[segment.ObjectID]*segment.Segment, clients []*Client) (*Fleet, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	f := &Fleet{dev: spec.device(), plan: spec.Faults, store: store}
	f.dev.Trace = nil
	if f.plan != nil && !f.plan.Enabled() {
		f.plan = nil
	}
	n := max(spec.N, 1)
	if policy == nil {
		policy = layout.OnePerGroup()
	}
	tenants := make([]layout.TenantObjects, len(clients))
	for i, c := range clients {
		tenants[i] = layout.TenantObjects{Tenant: c.Tenant, Objects: c.Catalog.AllObjects()}
	}
	assign, err := policy.Assign(tenants)
	if err != nil {
		return nil, fmt.Errorf("skipper: layout: %w", err)
	}
	if f.place, err = layout.BuildPlacement(assign, n, spec.Replication); err != nil {
		return nil, fmt.Errorf("skipper: placement: %w", err)
	}
	f.assigns = make([]*layout.Assignment, n)
	for i := range f.assigns {
		if f.assigns[i], err = f.place.DeviceAssignment(i); err != nil {
			return nil, fmt.Errorf("skipper: device %d: %w", i, err)
		}
	}
	return f, nil
}

// Close stops the goroutines that the fleet's idle kernels keep parked for
// their next runs, and forgets the kernels. Call it once no run is in
// flight; the fleet stays usable, and a later run builds a new kernel.
func (f *Fleet) Close() {
	f.mu.Lock()
	idle := f.idle
	f.idle = nil
	f.mu.Unlock()
	for _, r := range idle {
		r.sim.Stop()
	}
}

// Run runs the clients on the fleet with no shared cache; every device
// records into lane (nil records nothing).
func (f *Fleet) Run(clients []*Client, lane *trace.QueryTrace) (*RunResult, error) {
	return f.run(clients, nil, lane)
}

// This file is the fleet layer of the scale-out refactor: a cluster may
// run N devices instead of one, with the layout's Placement saying
// which device(s) hold each object. The DeviceChooser extends the
// single device's LoadedGroup/PredictNextGroup advisory views across
// the fleet — for a replicated object it picks the source whose loaded
// (or predicted-next) group already covers the request, and when a
// device crashes it finds the live replica the retry path fails over
// to. All methods run on simulated processes of one cooperative vtime
// kernel, so the advisory reads need no locking; like the underlying
// device views, they are exact at the instant of the call and stale
// after the caller's next yield.

// DeviceChooser routes object requests across the cluster's devices.
type DeviceChooser struct {
	devs  []*csd.CSD
	place *layout.Placement
}

func newDeviceChooser(devs []*csd.CSD, place *layout.Placement) *DeviceChooser {
	return &DeviceChooser{devs: devs, place: place}
}

// numDevices returns the fleet size.
func (dc *DeviceChooser) numDevices() int { return len(dc.devs) }

// device returns the device with the given id.
func (dc *DeviceChooser) device(d int) *csd.CSD { return dc.devs[d] }

// live reports whether device d can currently accept work: not
// fail-stopped and not inside a crash window.
func (dc *DeviceChooser) live(d int) bool {
	return dc.devs[d].Err() == nil && !dc.devs[d].Down()
}

// groupOf returns the object's disk group (global ids — identical on
// every device holding it), or -1 for an unplaced object.
func (dc *DeviceChooser) groupOf(id segment.ObjectID) int {
	devs := dc.place.DevicesFor(id)
	if len(devs) == 0 {
		return -1
	}
	a, err := dc.place.DeviceAssignment(devs[0])
	if err != nil {
		return -1
	}
	g, err := a.GroupOf(id)
	if err != nil {
		return -1
	}
	return g
}

// Choose picks the device that should serve a GET for the object. For
// an unreplicated object there is no choice; for a replicated one the
// chooser prefers, in order: a live replica whose loaded group covers
// the object (served without a group switch), a live replica whose
// scheduler predicts the object's group next, the first live replica in
// placement order (primary first), and finally the primary even when it
// is down — the request then fails with a DeviceDownError and the retry
// path owns recovery, exactly like the single-device contract.
func (dc *DeviceChooser) Choose(id segment.ObjectID) int {
	devs := dc.place.DevicesFor(id)
	if len(devs) == 0 {
		// Unplaced objects keep the historical behaviour: the primary
		// device's store lookup fails loudly.
		return 0
	}
	if len(devs) == 1 {
		return devs[0]
	}
	g := dc.groupOf(id)
	for _, d := range devs {
		if dc.live(d) && dc.devs[d].LoadedGroup() == g {
			return d
		}
	}
	for _, d := range devs {
		if !dc.live(d) {
			continue
		}
		if next, ok := dc.devs[d].PredictNextGroup(); ok && next == g {
			return d
		}
	}
	for _, d := range devs {
		if dc.live(d) {
			return d
		}
	}
	return devs[0]
}

// Failover returns a live replica of the object other than the failed
// device, if the placement holds one — the target the retry path
// re-requests from instead of re-retrying a crashed device.
func (dc *DeviceChooser) Failover(id segment.ObjectID, failed int) (int, bool) {
	for _, d := range dc.place.DevicesFor(id) {
		if d != failed && dc.live(d) {
			return d, true
		}
	}
	return -1, false
}

// affinity scores how cheaply the fleet can serve the object right now:
// 2 when a live replica has its group loaded, 1 when one predicts it
// next, 0 otherwise. The prefetcher uses it to order candidates.
func (dc *DeviceChooser) affinity(id segment.ObjectID) int {
	g := dc.groupOf(id)
	if g < 0 {
		return 0
	}
	score := 0
	for _, d := range dc.place.DevicesFor(id) {
		if !dc.live(d) {
			continue
		}
		if dc.devs[d].LoadedGroup() == g {
			return 2
		}
		if next, ok := dc.devs[d].PredictNextGroup(); ok && next == g {
			score = 1
		}
	}
	return score
}
