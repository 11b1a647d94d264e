// Package lattice is the one differential harness of the repository.
// Every experiment of the paper is the same run with different settings —
// an engine, data skipping, a shared cache, a prefetch budget, a fault
// plan, a device fleet, tracing — and every claim is an
// invariant across those settings: a setting may
// change when a query finishes, never what it returns, and no GET is lost
// between client, cache, prefetcher and device. A Cell is one point of
// that option lattice; Cell.Cluster is the one function that turns a cell
// into a cluster; Verify runs cells and holds each to the same checks.
package lattice

import (
	"fmt"
	"strings"
	"time"

	"repro/internal/catalog"
	"repro/internal/faults"
	"repro/internal/layout"
	"repro/internal/segcache"
	"repro/internal/segment"
	"repro/internal/skipper"
	"repro/internal/trace"
	"repro/internal/workload"
)

// Cell is one point of the option lattice: every setting of a run that
// may change when its queries finish but never what they return — the
// clients' execution Options, the devices they share, and what the
// harness adds around them. The zero value is the baseline corner: the
// library's default Options, no shared cache, one clean default device,
// untraced. A cell has no format: Verify serves its dataset as v2
// objects, and Cluster takes the store as it finds it.
type Cell struct {
	skipper.Options
	// SharedCache is the budget, in objects, of one segment cache shared
	// by every client of the cluster (0 = none).
	SharedCache int
	// Fleet is the device fleet and its fault plan.
	Fleet skipper.FleetSpec
	// Traced gives every client a span recorder (Client.QTrace) and the
	// fleet's devices one of their own (Fleet.Device.Trace).
	Traced bool
	// KeepResults retains every query's result rows in the run's records.
	KeepResults bool
}

// String names the cell by its path through the lattice, e.g.
// "v2/skipper/dop1/prune=true/cache=9/pipe/faults/2xfull/traced". The fixed
// "v2" says every cell serves v2 objects and the fixed "dop1" that every
// cell runs serially; both stay so that cell names, and the test names
// built from them, are the ones they have always been. A prefetch budget
// shows as "pipe".
func (c Cell) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "v2/%v/dop1/prune=%v", c.Mode, !c.NoStatsPruning)
	if c.SharedCache > 0 {
		fmt.Fprintf(&sb, "/cache=%d", c.SharedCache)
	}
	if c.PrefetchBytes > 0 {
		sb.WriteString("/pipe")
	}
	if c.Fleet.Faults != nil && c.Fleet.Faults.Enabled() {
		sb.WriteString("/faults")
	}
	if c.Fleet.N > 1 {
		fmt.Fprintf(&sb, "/%dx%v", c.Fleet.N, c.Fleet.Replication)
	}
	if c.Traced {
		sb.WriteString("/traced")
	}
	return sb.String()
}

// Tenant is one client's share of a workload: its catalog and the
// queries it runs, in order.
type Tenant struct {
	Catalog *catalog.Catalog
	Queries []skipper.QuerySpec
}

// Workload is what a cell runs: tenants over one object store, placed on
// disk groups by Layout (nil = one group per tenant).
type Workload struct {
	Store   map[segment.ObjectID]*segment.Segment
	Tenants []Tenant
	Layout  layout.Policy
}

// Shared is the harness's workload: `tenants` clients running the same
// queries over ONE shared dataset, its objects dealt round-robin over
// `groups` disk groups — the adversarial no-locality placement, so group
// switches, cross-tenant cache reuse and request coalescing are all at
// stake.
func Shared(ds *workload.Dataset, queries func(*catalog.Catalog) []skipper.QuerySpec, tenants, groups int) Workload {
	w := Workload{
		Store:  make(map[segment.ObjectID]*segment.Segment, len(ds.Store)),
		Layout: layout.RoundRobinObjects{NumGroups: groups},
	}
	ds.MergeInto(w.Store)
	for t := 0; t < tenants; t++ {
		w.Tenants = append(w.Tenants, Tenant{Catalog: ds.Catalog, Queries: queries(ds.Catalog)})
	}
	return w
}

// Probe is the harness's query list: two passes of the pruning probe
// pair (workload.MultiPass). Every pass re-reads the same segments, so a
// cache has something to hit and a prefetcher something to run ahead of;
// both probes end in ORDER BY over integer aggregates, so results are
// bit-identical at any arrival order.
func Probe(cat *catalog.Catalog) []skipper.QuerySpec { return workload.MultiPass(cat, 2) }

// ProbeDataset is the dataset the harness's own tables are run over: one
// small date-clustered TPC-H tenant (clustering is what gives the probe
// pair's zone maps their power), with enough rows per object that the
// shipdate-window probe returns rows — Verify refuses an empty oracle.
func ProbeDataset() *workload.Dataset {
	return workload.TPCH(0, workload.TPCHConfig{SF: 4, RowsPerObject: 256, Seed: 1, ClusteredDates: true})
}

// PrefetchOn is the harness tables' prefetch budget: room for two 1 GB
// objects in flight.
const PrefetchOn = 2e9

// Chaos is the harness tables' fault plan: retryable faults only — no crash window
// — each recoverable by the default retry policy (the per-object cap
// guarantees convergence under its attempt limit). Rates are high because
// the probe dataset is small (a handful of objects, further deduplicated
// by transfer coalescing): at paper-scale rates a run would roll the dice
// a dozen times and usually inject nothing.
func Chaos(seed int64) *faults.Plan {
	return &faults.Plan{
		Seed:               seed,
		TransientRate:      0.40,
		StallRate:          0.20,
		Stall:              3 * time.Second,
		CorruptRate:        0.25,
		MaxFaultsPerObject: 3,
	}
}

// Cluster builds the cell's cluster over the workload: one client per
// tenant, every client configured alike. Targeted tests adjust the
// returned value (a context, a private cache) before running it.
func (c Cell) Cluster(w Workload) *skipper.Cluster {
	cl := &skipper.Cluster{
		Clients: make([]*skipper.Client, len(w.Tenants)),
		Layout:  w.Layout,
		Fleet:   c.Fleet,
		Store:   w.Store,
	}
	for t, tn := range w.Tenants {
		client := c.Client(t, tn.Catalog, tn.Queries)
		client.KeepResults = c.KeepResults
		if c.Traced {
			client.QTrace = trace.NewQueryTrace(fmt.Sprintf("t%d", t), t, "")
		}
		cl.Clients[t] = client
	}
	if c.Traced {
		cl.Fleet.Device.Trace = trace.NewQueryTrace("devices", -1, "")
	}
	if c.SharedCache > 0 {
		cl.SharedCache = segcache.NewObjects(c.SharedCache)
	}
	return cl
}

// Run builds and runs the cell's cluster.
func (c Cell) Run(w Workload) (*skipper.RunResult, error) { return c.Cluster(w).Run() }
