package lattice

import (
	"fmt"
	"regexp"
	"runtime"
	"time"

	"repro/internal/catalog"
	"repro/internal/csd"
	"repro/internal/objstore"
	"repro/internal/segment"
	"repro/internal/skipper"
	"repro/internal/trace"
	"repro/internal/tuple"
	"repro/internal/workload"
)

// Tenants and Groups shape the workload Verify runs every cell over: two
// clients contending for one shared dataset spread over four disk groups
// (so a four-device fleet places one group per device and every device
// sees traffic).
const (
	Tenants = 2
	Groups  = 4
)

// AxisError reports a cell whose feature did nothing, or did something it
// must not: a gate that passes because the cache never hit, the plan never
// injected or a device never saw a GET proves nothing. Axis names the
// predicate ("rows", "goroutines", "cache", "pipeline", "faults", "fleet",
// "traced").
type AxisError struct {
	Axis   string
	Detail string
}

func (e *AxisError) Error() string { return fmt.Sprintf("lattice: %s: %s", e.Axis, e.Detail) }

// failedTransfer matches the name of a transfer span that delivered an
// error instead of data.
var failedTransfer = regexp.MustCompile(` (down|transient-fault|fail-stop)$`)

func axisErr(axis, format string, args ...any) error {
	return &AxisError{Axis: axis, Detail: fmt.Sprintf(format, args...)}
}

// Verify is the differential gate. Every cell runs the queries on Tenants
// clients sharing ds (encoded once, as v2 objects) and must
//
//   - return, for every client and query, exactly the rows
//     workload.Evaluate computes from the in-memory dataset — an oracle
//     outside the run, so a bug that breaks "on" and "off" alike still shows;
//   - satisfy RunResult.CheckInvariants;
//   - leave no goroutine behind;
//   - be indifferent to tracing: the cell's twin with Traced flipped must
//     pass the same checks with the same makespan and device GETs, and the
//     traced one of the two must record a sound span tree per client and a
//     device lane that agrees with the devices' own counters;
//   - pass the non-vacuity predicate of every axis it turns on (and the
//     nothing-happened predicate of the ones it leaves off): see checkCache,
//     checkPipeline, checkFaults and checkFleet.
//
// The first failure is returned, prefixed with the cell's name.
func Verify(ds *workload.Dataset, queries func(*catalog.Catalog) []skipper.QuerySpec, cells []Cell) error {
	want, err := Oracle(ds, queries)
	if err != nil {
		return err
	}
	enc, err := objstore.ReencodeDataset(ds, segment.FormatV2)
	if err != nil {
		return fmt.Errorf("lattice: encode: %w", err)
	}
	for _, c := range cells {
		c.KeepResults = true
		workload := func() Workload { return Shared(enc, queries, Tenants, Groups) }
		if err := verifyCell(c, workload, want); err != nil {
			return fmt.Errorf("%v: %w", c, err)
		}
	}
	return nil
}

// verifyCell runs the cell, its tracing twin and — for a cell with a
// shared cache — its cache-less twin, each twice back to back over fresh
// workloads and each held to checkRun, then the two comparisons a single
// run cannot make. The second run draws the working memory the first one
// released to the pool (tuple.Release), so whatever reads memory after
// releasing it reads another run's, or the poison a test binary writes.
func verifyCell(c Cell, workload func() Workload, want [][]tuple.Row) error {
	run := func(c Cell) (cl *skipper.Cluster, res *skipper.RunResult, err error) {
		for range 2 {
			if cl, res, err = runSettled(c, workload()); err == nil {
				err = checkRun(c, res, want)
			}
			if err != nil {
				break
			}
		}
		return cl, res, err
	}
	traced, res, err := run(c)
	if err != nil {
		return err
	}
	twin := c
	twin.Traced = !c.Traced
	twinCl, twinRes, err := run(twin)
	if err != nil {
		return fmt.Errorf("twin %v: %w", twin, err)
	}
	tracedRes, untracedRes := res, twinRes
	if !c.Traced {
		traced, tracedRes, untracedRes = twinCl, twinRes, res
	}
	if err := checkTraced(traced, tracedRes, untracedRes); err != nil || c.SharedCache == 0 {
		return err
	}
	off := c
	off.SharedCache = 0
	_, offRes, err := run(off)
	if err != nil {
		return fmt.Errorf("twin %v: %w", off, err)
	}
	return checkCache(res, offRes)
}

// Oracle evaluates every query of the list locally over the in-memory
// dataset: the rows every run of the list must return, whatever its cell.
// A list that returns no row at all is refused — comparing empty results
// proves nothing.
func Oracle(ds *workload.Dataset, queries func(*catalog.Catalog) []skipper.QuerySpec) ([][]tuple.Row, error) {
	var want [][]tuple.Row
	total := 0
	for _, spec := range queries(ds.Catalog) {
		rows, err := workload.Evaluate(ds, spec)
		if err != nil {
			return nil, fmt.Errorf("lattice: oracle %s: %w", spec.Name, err)
		}
		want = append(want, rows)
		total += len(rows)
	}
	if total == 0 {
		return nil, axisErr("rows", "the oracle returns no rows for any of the %d queries; the differential would be vacuous", len(want))
	}
	return want, nil
}

// runSettled runs the cell and requires the goroutine count to return to
// where it was: prefetchers and every simulated process
// must be gone when Run returns.
func runSettled(c Cell, w Workload) (*skipper.Cluster, *skipper.RunResult, error) {
	baseline := runtime.NumGoroutine()
	cl := c.Cluster(w)
	res, err := cl.Run()
	if err != nil {
		return nil, nil, err
	}
	return cl, res, Settle(baseline, 5*time.Second)
}

// Settle waits for the goroutine count to return to (at most) baseline,
// tolerating runtime bookkeeping noise, and reports the stacks of what is
// still running if it has not once patience runs out.
func Settle(baseline int, patience time.Duration) error {
	deadline := time.Now().Add(patience)
	for runtime.NumGoroutine() > baseline+2 {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			buf = buf[:runtime.Stack(buf, true)]
			return axisErr("goroutines", "did not settle: %d > baseline %d\n%s", runtime.NumGoroutine(), baseline, buf)
		}
		runtime.GC() // nudge finalizer-driven cleanups
		time.Sleep(10 * time.Millisecond)
	}
	return nil
}

// checkRun holds one completed run to everything that can be judged from
// the run alone.
func checkRun(c Cell, res *skipper.RunResult, want [][]tuple.Row) error {
	if err := CheckRows(res, want); err != nil {
		return err
	}
	if err := res.CheckInvariants(); err != nil {
		return err
	}
	if err := checkPipeline(c, res); err != nil {
		return err
	}
	if err := checkFaults(c, res); err != nil {
		return err
	}
	return checkFleet(c, res)
}

// EqualRows requires two result sets to be identical, row for row, in
// order — the repository's one result comparer.
func EqualRows(got, want []tuple.Row) error {
	if len(got) != len(want) {
		return fmt.Errorf("%d rows, want %d", len(got), len(want))
	}
	for i := range got {
		if g, w := got[i].String(), want[i].String(); g != w {
			return fmt.Errorf("row %d: %s, want %s", i, g, w)
		}
	}
	return nil
}

// CheckRows compares every client's every query against the oracle:
// want[j] is the truth of the j-th query of the list every tenant runs.
func CheckRows(res *skipper.RunResult, want [][]tuple.Row) error {
	for _, cs := range res.Clients {
		if len(cs.PerQuery) != len(want) {
			return axisErr("rows", "tenant %d ran %d queries, want %d", cs.Tenant, len(cs.PerQuery), len(want))
		}
		for j, q := range cs.PerQuery {
			if err := EqualRows(q.Results, want[j]); err != nil {
				return axisErr("rows", "tenant %d query %s: %v", cs.Tenant, q.Name, err)
			}
		}
	}
	return nil
}

// checkCache is the cache axis: against the same cell without the cache,
// the cache must have hit and must have removed device traffic (a second
// pass over the same segments cannot cost the device what the first did),
// and over an encoded store its entries' decoded columns must have removed
// decode work too; a cache-less run reports no cache statistics.
func checkCache(on, off *skipper.RunResult) error {
	if on.Cache == nil || on.Cache.Hits == 0 {
		return axisErr("cache", "repeated-query workload produced no cache hits")
	}
	if on.CSD.GetsReceived >= off.CSD.GetsReceived {
		return axisErr("cache", "device GETs did not drop: %d with cache vs %d without", on.CSD.GetsReceived, off.CSD.GetsReceived)
	}
	decoded := func(res *skipper.RunResult) (n int64) {
		for _, cs := range res.Clients {
			n += cs.BytesDecoded
		}
		return n
	}
	if d := decoded(off); d > 0 && decoded(on) >= d {
		return axisErr("cache", "decoded bytes did not drop: %d with cache vs %d without", decoded(on), d)
	}
	if off.Cache != nil {
		return axisErr("cache", "cache statistics reported for a cache-off run: %+v", *off.Cache)
	}
	return nil
}

// checkPipeline is the pipeline axis. On: every run must have prefetched,
// and the prefetches must have been consumed — served staged when there is
// no cache to admit them to, attributed as useful cache hits when there is
// — and every client must carry a wall-clock measurement. Off: no prefetch
// counter may move.
func checkPipeline(c Cell, res *skipper.RunResult) error {
	issued, served, useful := 0, 0, 0
	for _, cs := range res.Clients {
		issued += cs.PrefetchIssued
		served += cs.PrefetchServed
		useful += cs.PrefetchUseful
		if c.PrefetchBytes > 0 && (cs.WallElapsed <= 0 || res.Wall <= 0) {
			return axisErr("pipeline", "tenant %d: no wall-clock measurement", cs.Tenant)
		}
	}
	switch {
	case c.PrefetchBytes == 0:
		if issued+served+useful != 0 {
			return axisErr("pipeline", "pipeline-off run recorded prefetch work: issued %d, served %d, useful %d", issued, served, useful)
		}
	case issued == 0:
		return axisErr("pipeline", "pipeline-on run issued no prefetches")
	case c.SharedCache == 0 && served == 0:
		return axisErr("pipeline", "no demand GET was served from staged prefetches")
	case c.SharedCache > 0 && useful == 0:
		return axisErr("pipeline", "no cache hit was attributed to prefetch")
	}
	return nil
}

// checkFaults is the fault axis. Under a plan: the injectors must have
// fired, the clients must have seen what was injected, and — without a
// prefetcher, where every fault lands on the demand path — must have
// recovered by retrying. (With prefetch on, a fault on a prefetch
// transfer is recovered by dropping the candidate; the demand refetch only
// retries if it faults again.) A plan with a crash window must have
// opened it. Clean: nothing injected, seen or retried.
func checkFaults(c Cell, res *skipper.RunResult) error {
	var injected int64
	for _, st := range res.Faults {
		injected += st.Injected()
	}
	seen, retries := 0, 0
	for _, cs := range res.Clients {
		seen += cs.TransientFaults + cs.CorruptDeliveries
		retries += cs.Retries
	}
	if c.Fleet.Faults == nil || !c.Fleet.Faults.Enabled() {
		if injected+int64(seen)+int64(retries) != 0 {
			return axisErr("faults", "clean run recorded fault work: injected %d, observed %d, retries %d", injected, seen, retries)
		}
		return nil
	}
	if len(res.Faults) != len(res.Devices) {
		return axisErr("faults", "%d injector reports for %d devices", len(res.Faults), len(res.Devices))
	}
	if c.Fleet.Faults.CrashAt > 0 && res.Devices[0].Crashes == 0 {
		return axisErr("faults", "the plan's crash window never opened")
	}
	if c.Fleet.Faults.TransientRate == 0 && c.Fleet.Faults.CorruptRate == 0 {
		return nil
	}
	if injected == 0 {
		return axisErr("faults", "fault plan injected nothing")
	}
	if seen == 0 {
		return axisErr("faults", "injectors report %d faults but the clients observed none", injected)
	}
	if c.PrefetchBytes == 0 && retries == 0 {
		return axisErr("faults", "%d demand-path faults recovered without a retry", seen)
	}
	return nil
}

// checkFleet is the fleet axis: the run reports one statistics block per
// device of the spec, and every device received GETs — a placement bug
// that funnels the workload through one device cannot pass.
func checkFleet(c Cell, res *skipper.RunResult) error {
	if want := max(c.Fleet.N, 1); len(res.Devices) != want {
		return axisErr("fleet", "%d device statistics blocks, want %d", len(res.Devices), want)
	}
	for d, st := range res.Devices {
		if st.GetsReceived == 0 {
			return axisErr("fleet", "device %d received no GETs", d)
		}
	}
	return nil
}

// checkTraced is the tracing axis: the span layer is an observer, never a
// participant. The traced and untraced runs of one cell agree on every
// virtual-clock quantity (wall time may differ), each client's trace is a
// sound span tree, and the device lane agrees with the devices' counters.
// traced is the cluster of whichever run recorded, a its result.
func checkTraced(traced *skipper.Cluster, a, b *skipper.RunResult) error {
	if a.Makespan != b.Makespan {
		return axisErr("traced", "tracing changed the makespan: %v vs %v", a.Makespan, b.Makespan)
	}
	if a.CSD.GetsReceived != b.CSD.GetsReceived {
		return axisErr("traced", "tracing changed device traffic: %d vs %d GETs", a.CSD.GetsReceived, b.CSD.GetsReceived)
	}
	for i, client := range traced.Clients {
		if err := checkSpanTree(client.QTrace, len(a.Clients[i].PerQuery)); err != nil {
			return axisErr("traced", "tenant %d: %v", client.Tenant, err)
		}
	}
	if err := CheckDeviceLane(traced.Fleet.Device.Trace.Spans(), a.Devices); err != nil {
		return axisErr("traced", "device lane: %v", err)
	}
	return nil
}

// CheckDeviceLane holds what the devices recorded (csd.Config.Trace) to
// what they counted: per device, one switch span per group switch, one
// transfer span per GET received (every request is answered exactly once),
// of which those that carried data number ObjectsServed, and one down
// span per crash. Every span is closed, and since each is recorded as it
// ends on the one virtual clock the devices share, ends never run
// backwards.
func CheckDeviceLane(spans []trace.Span, devices []csd.Stats) error {
	type tally struct{ switches, transfers, served, downs int }
	got := make([]tally, len(devices))
	var last time.Duration
	for _, sp := range spans {
		switch {
		case sp.Device < 0 || sp.Device >= len(devices):
			return fmt.Errorf("span %d (%s %s) names device %d of %d", sp.ID, sp.Cat, sp.Name, sp.Device, len(devices))
		case !sp.HasVirt || sp.VirtEnd < sp.VirtStart || sp.WallEnd < sp.WallStart:
			return fmt.Errorf("span %d (%s %s) is not closed on both clocks", sp.ID, sp.Cat, sp.Name)
		case sp.VirtEnd < last:
			return fmt.Errorf("span %d (%s %s) ends at %v, before its predecessor's %v", sp.ID, sp.Cat, sp.Name, sp.VirtEnd, last)
		}
		last = sp.VirtEnd
		t := &got[sp.Device]
		switch sp.Cat {
		case trace.CatSwitch:
			t.switches++
		case trace.CatTransfer:
			t.transfers++
			if !failedTransfer.MatchString(sp.Name) {
				t.served++
			}
		case trace.CatDown:
			t.downs++
		default:
			return fmt.Errorf("span %d has category %q, not a device's", sp.ID, sp.Cat)
		}
	}
	for d, st := range devices {
		want := tally{st.GroupSwitches, st.GetsReceived, st.ObjectsServed, st.Crashes}
		if got[d] != want {
			return fmt.Errorf("device %d recorded %+v, counted %+v", d, got[d], want)
		}
	}
	return nil
}

// checkSpanTree asserts structural soundness of one client's recorded
// trace: one root per query, well-formed bounds, known parents, and fetch,
// decode, stall or cycle activity under the execute phases.
func checkSpanTree(qt *trace.QueryTrace, queries int) error {
	spans := qt.Spans()
	if len(spans) == 0 {
		return fmt.Errorf("traced run recorded no spans")
	}
	known := make(map[int]bool, len(spans))
	for _, sp := range spans {
		known[sp.ID] = true
	}
	roots, execs, work := 0, 0, 0
	for _, sp := range spans {
		if sp.WallEnd < sp.WallStart {
			return fmt.Errorf("span %d (%s %s) has inverted wall bounds", sp.ID, sp.Cat, sp.Name)
		}
		if sp.HasVirt && sp.VirtEnd < sp.VirtStart {
			return fmt.Errorf("span %d (%s %s) has inverted virtual bounds", sp.ID, sp.Cat, sp.Name)
		}
		if sp.Parent != 0 && !known[sp.Parent] {
			return fmt.Errorf("span %d has unknown parent %d", sp.ID, sp.Parent)
		}
		switch sp.Cat {
		case trace.CatQuery:
			roots++
			if sp.Parent != 0 {
				return fmt.Errorf("query span %d nested under %d", sp.ID, sp.Parent)
			}
			if !sp.HasVirt {
				return fmt.Errorf("query span %d missing virtual stamps", sp.ID)
			}
		case trace.CatExecute:
			execs++
		case trace.CatFetch, trace.CatDecode, trace.CatStall, trace.CatCycle:
			work++
		}
	}
	if roots != queries || execs != queries {
		return fmt.Errorf("recorded %d query roots and %d execute phases, want %d each", roots, execs, queries)
	}
	if work == 0 && qt.Dropped() == 0 {
		return fmt.Errorf("no fetch/decode/stall/cycle spans recorded")
	}
	return nil
}
