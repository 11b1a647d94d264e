package lattice

import (
	"errors"
	"fmt"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/catalog"
	"repro/internal/csd"
	"repro/internal/faults"
	"repro/internal/layout"
	"repro/internal/objstore"
	"repro/internal/segment"
	"repro/internal/skipper"
	"repro/internal/trace"
	"repro/internal/workload"
)

// The witness table: one row per value a caller can give a run — every
// field of skipper.Options, skipper.FleetSpec, csd.Config and Cell, and
// every layout, scheduler and replication a run can be placed and served
// by. A setting earns its place by what it does to a run, and the row
// says which of three things that is:
//
//   - identity: the value moves no result and no exact count (tracing,
//     kept results, a default spelled out, a replica nobody needs);
//   - policy: some entry point selects it, and its witness — a cell and a
//     workload — shows it at work: switching the value back to its
//     default moves at least one exact count (device GETs, group
//     switches, virtual seconds, MJoin requests and fault retries, or
//     coalesced transfers), while the results stay the same;
//   - stamp: the fleet sets it on each device per run (an ID, a trace
//     lane, an injector), so a caller's value runs as if unset or is
//     refused.
//
// A setting no entry point selects has no policy row to stand on, and
// goes; a new setting lands with its row, or TestEveryPolicyValueHasAWitness
// names its field.

type witnessKind int

const (
	identity witnessKind = iota
	policy
	stamp
)

func (k witnessKind) String() string { return [...]string{"identity", "policy", "stamp"}[k] }

// witnessRow is one value a caller can give a run.
type witnessRow struct {
	// field is the setting, as package.Type.Field; value names the value
	// of a setting that has several, and is empty otherwise.
	field, value string
	kind         witnessKind
	// entry names what selects the value: a flag, a figure, a report.
	// Policy rows only.
	entry string
	// refused marks a stamp no caller may give: the run must be refused.
	refused bool
	// on is the run the row is witnessed on, at the setting's default;
	// set gives the setting the row's value.
	on  setup
	set func(*Cell, *Workload)
}

func (r witnessRow) name() string {
	if r.value == "" {
		return r.field
	}
	return r.field + "=" + r.value
}

// setup is a witness's cell and workload at every setting's default. Its
// name keys the base run several rows share.
type setup struct {
	name string
	make func() (Cell, Workload)
}

// witnessSets are the datasets the witnesses run over, encoded as v2
// objects as every entry point serves them.
type witnessSets struct {
	// probe is the harness's own dataset, shared by Verify's tenants.
	probe *workload.Dataset
	// apart is five small tenants of their own, for the layouts and the
	// schedulers, which place and serve tenants apart.
	apart []*workload.Dataset
	// q5 is two tenants at Figure 11c's quick scale, whose Q5 outgrows an
	// MJoin buffer of seven objects.
	q5 []*workload.Dataset
}

// witnessData builds the witness datasets once.
var witnessData = sync.OnceValues(func() (*witnessSets, error) {
	var ws witnessSets
	var err error
	enc := func(ds *workload.Dataset) *workload.Dataset {
		if err == nil {
			ds, err = objstore.ReencodeDataset(ds, segment.FormatV2)
		}
		return ds
	}
	ws.probe = enc(ProbeDataset())
	for t := 0; t < 5; t++ {
		ws.apart = append(ws.apart, enc(workload.TPCH(t, workload.TPCHConfig{SF: 2, RowsPerObject: 16, Seed: int64(t + 1)})))
	}
	for t := 0; t < 2; t++ {
		ws.q5 = append(ws.q5, enc(workload.TPCH(t, workload.TPCHConfig{SF: 16, RowsPerObject: 2, Seed: 1})))
	}
	return &ws, err
})

// tenantsApart is a workload of one tenant per dataset, each running its
// queries over its own catalog.
func tenantsApart(sets []*workload.Dataset, queries func(*catalog.Catalog) []skipper.QuerySpec) Workload {
	w := Workload{Store: make(map[segment.ObjectID]*segment.Segment)}
	for _, ds := range sets {
		ds.MergeInto(w.Store)
		w.Tenants = append(w.Tenants, Tenant{Catalog: ds.Catalog, Queries: queries(ds.Catalog)})
	}
	return w
}

// shared is the harness's own workload (Verify's) under cell c.
func shared(name string, c Cell) setup {
	return setup{name, func() (Cell, Workload) {
		data, _ := witnessData()
		return c, Shared(data.probe, Probe, Tenants, Groups)
	}}
}

var (
	probeVanilla = shared("vanilla", Cell{})
	probeSkipper = shared("skipper", Cell{Options: skipper.Options{Mode: skipper.ModeSkipper}})
	probeChaos   = shared("chaos", Cell{Fleet: skipper.FleetSpec{Faults: Chaos(42)}})
	probePair    = shared("2 devices", Cell{Fleet: skipper.FleetSpec{N: 2}})
	// probeCrash takes device 0 of two down for long enough that waiting
	// it out takes retries, and not so long that they run out.
	probeCrash = shared("2 devices, crash", Cell{Fleet: skipper.FleetSpec{N: 2,
		Faults: &faults.Plan{Seed: 1, CrashAt: 60 * time.Second, CrashDowntime: 30 * time.Second}}})

	// apart is five tenants running the probe pair twice on the vanilla
	// engine — whose one-object pulls make every placement and every
	// switch decision show — one group per tenant.
	apart = setup{"apart", func() (Cell, Workload) {
		data, _ := witnessData()
		return Cell{}, tenantsApart(data.apart, Probe)
	}}
	// skewed is apart on Figure 12's layout: two busy groups of two
	// tenants and a lone tenant on the third, so a scheduler has choices
	// to make.
	skewed = setup{"skewed", func() (Cell, Workload) {
		c, w := apart.make()
		w.Layout = layout.ByTenant{Groups: []int{0, 0, 1, 1, 2}}
		return c, w
	}}
	// q5 is two tenants running Q5 on the skipper engine.
	q5 = setup{"q5", func() (Cell, Workload) {
		data, _ := witnessData()
		return Cell{Options: skipper.Options{Mode: skipper.ModeSkipper}}, tenantsApart(data.q5, func(cat *catalog.Catalog) []skipper.QuerySpec {
			return []skipper.QuerySpec{workload.Q5(cat)}
		})
	}}
)

// device gives the cell's fleet a device that sets only what f sets, on
// top of the zero csd.Config.
func device(f func(*csd.Config)) func(*Cell, *Workload) {
	return func(c *Cell, _ *Workload) { f(&c.Fleet.Device) }
}

// placed runs the workload on layout p.
func placed(p layout.Policy) func(*Cell, *Workload) {
	return func(_ *Cell, w *Workload) { w.Layout = p }
}

// scheduled runs the fleet's devices, at the paper's defaults, on s.
func scheduled(s csd.Scheduler) func(*Cell, *Workload) {
	return device(func(d *csd.Config) { *d = csd.DefaultConfig(); d.Scheduler = s })
}

func witnessRows() []witnessRow {
	return []witnessRow{
		// skipper.Options
		{field: "skipper.Options.Mode", kind: policy, entry: "-engine; every figure's two engines", on: probeVanilla,
			set: func(c *Cell, _ *Workload) { c.Mode = skipper.ModeSkipper }},
		{field: "skipper.Options.CacheObjects", kind: policy, entry: "-cache; Figures 11b and 11c", on: q5,
			set: func(c *Cell, _ *Workload) { c.CacheObjects = 7 }},
		{field: "skipper.Options.NoStatsPruning", kind: policy, entry: "-prune=false; the prune report", on: probeSkipper,
			set: func(c *Cell, _ *Workload) { c.NoStatsPruning = true }},
		{field: "skipper.Options.PrefetchBytes", kind: policy, entry: "-prefetch; the pipeline report", on: probeVanilla,
			set: func(c *Cell, _ *Workload) { c.PrefetchBytes = PrefetchOn }},
		{field: "skipper.Options.Retry", kind: policy, entry: "-retry-attempts, -retry-backoff; the faults report", on: probeChaos,
			set: func(c *Cell, _ *Workload) {
				c.Retry = skipper.DefaultRetryPolicy()
				c.Retry.BaseBackoff *= 4
			}},

		// skipper.FleetSpec; its Device is csd.Config's rows.
		{field: "skipper.FleetSpec.N", kind: policy, entry: "-devices; the scale report", on: probeVanilla,
			set: func(c *Cell, _ *Workload) { c.Fleet.N = 2 }},
		{field: "skipper.FleetSpec.Replication", value: "none", kind: identity, on: probePair,
			set: func(c *Cell, _ *Workload) { c.Fleet.Replication = layout.ReplicateNone }},
		{field: "skipper.FleetSpec.Replication", value: "full, clean", kind: identity, on: probePair,
			set: func(c *Cell, _ *Workload) { c.Fleet.Replication = layout.ReplicateFull }},
		{field: "skipper.FleetSpec.Replication", value: "full, crash", kind: policy, entry: "-replication full; the scale report", on: probeCrash,
			set: func(c *Cell, _ *Workload) { c.Fleet.Replication = layout.ReplicateFull }},
		{field: "skipper.FleetSpec.Faults", kind: policy, entry: "-fault-*, -crash-*; the faults report", on: probeVanilla,
			set: func(c *Cell, _ *Workload) { c.Fleet.Faults = Chaos(42) }},

		// csd.Config
		{field: "csd.Config.ID", kind: stamp, on: probeVanilla, set: device(func(d *csd.Config) { d.ID = 7 })},
		{field: "csd.Config.GroupSwitch", kind: policy, entry: "Figures 5 and 10", on: probeSkipper,
			set: device(func(d *csd.Config) { d.GroupSwitch, d.Bandwidth = 40*time.Second, csd.DefaultConfig().Bandwidth })},
		{field: "csd.Config.Bandwidth", kind: policy, entry: "experiments.Params.Bandwidth: every figure's device", on: probeSkipper,
			set: device(func(d *csd.Config) { d.GroupSwitch, d.Bandwidth = csd.DefaultConfig().GroupSwitch, 50e6 })},
		{field: "csd.Config.Scheduler", value: "fcfs-object", kind: policy, entry: "Figure 12 (fairness)", on: skewed,
			set: scheduled(csd.NewFCFSObject())},
		{field: "csd.Config.Scheduler", value: "max-queries", kind: policy, entry: "Figure 12 (maxquery)", on: skewed,
			set: scheduled(csd.NewMaxQueries())},
		{field: "csd.Config.Scheduler", value: "rank-based", kind: identity, on: skewed,
			set: device(func(d *csd.Config) {
				dflt := csd.DefaultConfig()
				d.GroupSwitch, d.Bandwidth, d.Scheduler = dflt.GroupSwitch, dflt.Bandwidth, csd.NewRankBased()
			})},
		{field: "csd.Config.Trace", kind: stamp, on: probeVanilla,
			set: device(func(d *csd.Config) { d.Trace = trace.NewQueryTrace("devices", -1, "") })},
		{field: "csd.Config.Faults", kind: stamp, on: probeVanilla,
			set: device(func(d *csd.Config) { d.Faults = faults.MustNew(*Chaos(42)) }), refused: true},

		// Cell; its Options and Fleet are the rows above.
		{field: "lattice.Cell.SharedCache", kind: policy, entry: "-segcache; the cache report", on: probeVanilla,
			set: func(c *Cell, _ *Workload) { c.SharedCache = 3 }},
		{field: "lattice.Cell.Traced", kind: identity, on: probeSkipper,
			set: func(c *Cell, _ *Workload) { c.Traced = true }},
		{field: "lattice.Cell.KeepResults", kind: identity, on: probeSkipper,
			set: func(c *Cell, _ *Workload) { c.KeepResults = false }},

		// The layouts a workload is placed by (nil = OnePerGroup).
		{field: "lattice.Workload.Layout", value: "all-in-one", kind: policy, entry: "Figure 11a (Allin1)", on: apart,
			set: placed(layout.AllInOne{})},
		{field: "lattice.Workload.Layout", value: "2-clients-per-group", kind: policy, entry: "Figure 11a (2perG)", on: apart,
			set: placed(layout.ClientsPerGroup{K: 2})},
		{field: "lattice.Workload.Layout", value: "1-clients-per-group", kind: identity, on: apart,
			set: placed(layout.OnePerGroup())},
		{field: "lattice.Workload.Layout", value: "incremental", kind: policy, entry: "Figure 11a (Increm.)", on: apart,
			set: placed(layout.Incremental{})},
		{field: "lattice.Workload.Layout", value: "by-tenant", kind: policy, entry: "Figure 12's skewed placement", on: apart,
			set: placed(layout.ByTenant{Groups: []int{0, 0, 1, 1, 2}})},
		{field: "lattice.Workload.Layout", value: "round-robin", kind: policy, entry: "lattice.Shared: every Verify cell, the cache and scale reports", on: apart,
			set: placed(layout.RoundRobinObjects{NumGroups: 5})},
	}
}

// witnessCounts are the exact counts a witness compares: what a setting
// may move, never the rows.
type witnessCounts struct {
	DeviceGets, Switches, Coalesced int
	Makespan, ClientTime            time.Duration // virtual
	MJoinRequests, Retries          int
}

// witnessRun is one run of a witness: its counts and every client's rows.
type witnessRun struct {
	counts witnessCounts
	res    *skipper.RunResult
}

// runWitness runs the cell on the workload and counts.
func runWitness(c Cell, w Workload) (witnessRun, error) {
	res, err := c.Run(w)
	if err != nil {
		return witnessRun{}, err
	}
	n := witnessCounts{
		DeviceGets: res.CSD.GetsReceived, Switches: res.CSD.GroupSwitches, Coalesced: res.CSD.GetsCoalesced,
		Makespan: res.Makespan,
	}
	for _, cs := range res.Clients {
		n.ClientTime += cs.Elapsed()
		n.MJoinRequests += cs.MJoin.Requests
		n.Retries += cs.Retries
	}
	return witnessRun{n, res}, nil
}

// sameRows requires every client's every query to return the same rows in
// both runs; a run that kept no rows has nothing to compare.
func sameRows(a, b *skipper.RunResult) error {
	for i, ca := range a.Clients {
		if len(b.Clients[i].PerQuery) != len(ca.PerQuery) {
			return fmt.Errorf("tenant %d ran %d queries, not %d", ca.Tenant, len(b.Clients[i].PerQuery), len(ca.PerQuery))
		}
		for j, qa := range ca.PerQuery {
			qb := b.Clients[i].PerQuery[j]
			if qa.Results == nil || qb.Results == nil {
				continue
			}
			if err := EqualRows(qb.Results, qa.Results); err != nil {
				return fmt.Errorf("tenant %d query %s: %v", ca.Tenant, qa.Name, err)
			}
		}
	}
	return nil
}

// baseRuns memoizes each setup's run at the defaults: several rows share
// one, and the runs are deterministic.
type baseRuns map[string]witnessRun

func (b baseRuns) get(s setup) (witnessRun, error) {
	if r, ok := b[s.name]; ok {
		return r, nil
	}
	c, w := s.make()
	c.KeepResults = true
	r, err := runWitness(c, w)
	if err != nil {
		return r, fmt.Errorf("the %s witness at its defaults: %w", s.name, err)
	}
	b[s.name] = r
	return r, nil
}

// check runs the row against its setup at the defaults.
func (r witnessRow) check(bases baseRuns) error {
	base, err := bases.get(r.on)
	if err != nil {
		return err
	}
	c, w := r.on.make()
	c.KeepResults = true
	r.set(&c, &w)
	got, err := runWitness(c, w)
	switch {
	case r.refused && err == nil:
		return errors.New("is run, not refused")
	case r.refused:
		return nil
	case err != nil:
		return err
	}
	if err := sameRows(base.res, got.res); err != nil {
		return fmt.Errorf("moves results: %v", err)
	}
	moved := got.counts != base.counts
	switch {
	case r.kind == policy && r.entry == "":
		return errors.New("no entry point selects it")
	case r.kind == policy && !moved:
		return fmt.Errorf("witnesses nothing: the %s run counts %+v at the value and at the default", r.on.name, got.counts)
	case r.kind != policy && moved:
		return fmt.Errorf("is a %v, yet on the %s run it counts %+v against the default's %+v", r.kind, r.on.name, got.counts, base.counts)
	}
	return nil
}

// checkWitnesses runs every row and names each that fails.
func checkWitnesses(rows []witnessRow) error {
	bases := baseRuns{}
	var errs []error
	for _, r := range rows {
		if err := r.check(bases); err != nil {
			errs = append(errs, fmt.Errorf("%s (%v): %w", r.name(), r.kind, err))
		}
	}
	return errors.Join(errs...)
}

// witnessed are the structs every field of which needs a row.
var witnessed = []reflect.Type{
	reflect.TypeFor[skipper.Options](),
	reflect.TypeFor[skipper.FleetSpec](),
	reflect.TypeFor[csd.Config](),
	reflect.TypeFor[Cell](),
}

// unwitnessed names every field of the structs that no row is for. A
// field whose type is itself one of the structs is its fields' rows.
func unwitnessed(rows []witnessRow, structs []reflect.Type) []string {
	has := map[string]bool{}
	for _, r := range rows {
		has[r.field] = true
	}
	var out []string
	for _, t := range structs {
		for i := 0; i < t.NumField(); i++ {
			f := t.Field(i)
			name := t.String() + "." + f.Name
			if !has[name] && !containsType(structs, f.Type) {
				out = append(out, name)
			}
		}
	}
	return out
}

func containsType(ts []reflect.Type, t reflect.Type) bool {
	for _, u := range ts {
		if u == t {
			return true
		}
	}
	return false
}

// TestEveryPolicyValueHasAWitness runs the witness table, and names every
// field of the witnessed structs that has no row.
func TestEveryPolicyValueHasAWitness(t *testing.T) {
	if _, err := witnessData(); err != nil {
		t.Fatal(err)
	}
	rows := witnessRows()
	for _, name := range unwitnessed(rows, witnessed) {
		t.Errorf("%s has no witness row: add one, or delete the field", name)
	}
	names := map[string]bool{}
	for _, r := range rows {
		if names[r.name()] {
			t.Errorf("two rows are named %s", r.name())
		}
		names[r.name()] = true
	}
	if err := checkWitnesses(rows); err != nil {
		t.Fatal(err)
	}
}

// asDefault is a doctored scheduler: it answers as the default, under
// another policy's name.
type asDefault struct {
	csd.RankBased
	name string
}

func (s asDefault) Name() string { return s.name }

// oneGroupEach is a doctored layout: it places as the default, under
// another layout's name.
type oneGroupEach struct{ layout.Policy }

func (oneGroupEach) Name() string { return "all-in-one" }

// TestWitnessTableCanFail is the table's self-test: a value that answers
// as its default fails by its row's name, and a field with no row fails
// by the field's name.
func TestWitnessTableCanFail(t *testing.T) {
	if _, err := witnessData(); err != nil {
		t.Fatal(err)
	}
	doctored := map[string]func(*Cell, *Workload){
		"csd.Config.Scheduler=max-queries":   scheduled(asDefault{name: "max-queries"}),
		"csd.Config.Scheduler=fcfs-object":   scheduled(asDefault{name: "fcfs-object"}),
		"lattice.Workload.Layout=all-in-one": placed(oneGroupEach{layout.OnePerGroup()}),
		"csd.Config.GroupSwitch": device(func(d *csd.Config) {
			d.GroupSwitch, d.Bandwidth = csd.DefaultConfig().GroupSwitch, csd.DefaultConfig().Bandwidth
		}),
	}
	var rows []witnessRow
	for _, r := range witnessRows() {
		if set, ok := doctored[r.name()]; ok {
			r.set = set
			rows = append(rows, r)
		}
	}
	if len(rows) != len(doctored) {
		t.Fatalf("%d of the %d doctored rows are in the table", len(rows), len(doctored))
	}
	err := checkWitnesses(rows)
	for name := range doctored {
		if err == nil || !strings.Contains(err.Error(), name+" (policy): witnesses nothing") {
			t.Errorf("the doctored %s passed (err = %v)", name, err)
		}
	}

	type extended struct {
		Cell
		Extra int
	}
	got := unwitnessed(witnessRows(), append(witnessed, reflect.TypeFor[extended]()))
	if want := []string{"lattice.extended.Extra"}; !reflect.DeepEqual(got, want) {
		t.Errorf("unwitnessed fields %v, want %v", got, want)
	}
}
