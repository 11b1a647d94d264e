// The differential suites of the cluster layer, as rows of the lattice
// harness: the shared-cache, pipeline, chaos, fleet and tracing matrices
// each run their cells through lattice.Verify — rows against the
// workload.Evaluate oracle, RunResult.CheckInvariants, goroutine settling,
// tracing indifference and the per-axis non-vacuity predicates — and the
// targeted tests below them cover what a matrix cannot: crashes, typed
// failures and drains. Everything builds its cluster through
// lattice.Cell. Runs under CI's -race job. External test package: the
// harness imports skipper itself.
package skipper_test

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/csd"
	"repro/internal/faults"
	"repro/internal/lattice"
	"repro/internal/layout"
	"repro/internal/objstore"
	"repro/internal/segcache"
	"repro/internal/segment"
	"repro/internal/skipper"
	"repro/internal/trace"
	"repro/internal/tuple"
	"repro/internal/workload"
)

// footprint is the probe dataset's size in objects: the shared-cache
// budget that holds the whole working set.
func footprint() int { return len(lattice.ProbeDataset().Catalog.AllObjects()) }

// verifyMatrix runs the cells through lattice.Verify, one subtest per
// distinct name (cells sharing a name form one subtest).
func verifyMatrix(t *testing.T, cells []lattice.Cell, name func(lattice.Cell) string) {
	ds := lattice.ProbeDataset()
	var order []string
	groups := map[string][]lattice.Cell{}
	for _, c := range cells {
		n := name(c)
		if groups[n] == nil {
			order = append(order, n)
		}
		groups[n] = append(groups[n], c)
	}
	for _, n := range order {
		t.Run(n, func(t *testing.T) {
			if err := lattice.Verify(ds, lattice.Probe, groups[n]); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// The cell table: the five feature matrices the repository grew one PR at
// a time, as rows. Every constructor that uses a shared cache takes the
// dataset's footprint in objects — the budget that holds the whole
// working set.

// probeMJoinCache is the tables' MJoin buffer: the minimum for the probe
// pair's six-relation join, so eviction and reissue are always on.
const probeMJoinCache = 6

var (
	modes   = []skipper.Mode{skipper.ModeVanilla, skipper.ModeSkipper}
	wire    = []segment.Format{segment.FormatV2}
	formats = []segment.Format{segment.FormatMem, segment.FormatV2}
	onOff   = []bool{false, true}
	// fleets are the fleet axis: the classic single device, then growing
	// fleets with and without replication.
	fleets = []skipper.FleetSpec{
		{},
		{N: 2},
		{N: 2, Replication: layout.Replication{Kind: layout.ReplicateHot}},
		{N: 4},
		{N: 4, Replication: layout.Replication{Kind: layout.ReplicateFull}},
	}
)

// grid enumerates formats × engines, the part every feature matrix shares.
func grid(formats []segment.Format) []lattice.Cell {
	var out []lattice.Cell
	for _, f := range formats {
		for _, m := range modes {
			out = append(out, lattice.Cell{Mode: m, Format: f, MJoinCache: probeMJoinCache})
		}
	}
	return out
}

// cacheMatrix is the shared-segment-cache matrix: cache on (Verify runs
// the cache-off twin itself) across every format, engine and pruning on/off.
func cacheMatrix(footprint int) []lattice.Cell {
	var out []lattice.Cell
	for _, c := range grid(formats) {
		for _, noPrune := range onOff {
			c.NoPrune, c.SharedCache = noPrune, footprint
			out = append(out, c)
		}
	}
	return out
}

// pipelineMatrix is the prefetch matrix: prefetch off and on across
// the wire formats, engines and pruning on/off. No segment cache, so
// prefetched deliveries travel the staged hand-off path.
func pipelineMatrix() []lattice.Cell {
	var out []lattice.Cell
	for _, c := range grid(wire) {
		for _, noPrune := range onOff {
			c.NoPrune = noPrune
			on := c
			on.PrefetchBytes = lattice.PrefetchOn
			out = append(out, c, on)
		}
	}
	return out
}

// faultMatrix is the chaos matrix: the retryable-only plan across the wire
// formats, engines and the pipeline off/on, over a shared cache so
// corrupt-delivery quarantine and redelivery cross tenant boundaries.
func faultMatrix(footprint int) []lattice.Cell {
	var out []lattice.Cell
	for _, c := range grid(wire) {
		c.SharedCache, c.Fleet.Faults = footprint, lattice.Chaos(42)
		on := c
		on.PrefetchBytes = lattice.PrefetchOn
		out = append(out, c, on)
	}
	return out
}

// fleetMatrix is the scale-out matrix: every fleet of the fleet axis
// across the wire formats and engines, with the pipeline on (the
// prefetcher's device fan-out is under test) and a shared cache.
func fleetMatrix(footprint int) []lattice.Cell {
	var out []lattice.Cell
	for _, c := range grid(wire) {
		c.SharedCache, c.PrefetchBytes = footprint, lattice.PrefetchOn
		for _, fl := range fleets {
			c.Fleet = fl
			out = append(out, c)
		}
	}
	return out
}

// traceMatrix is the tracing matrix: traced cells (Verify runs the
// untraced twin itself) across the wire formats, engines and the
// pipeline off/on — the prefetcher's disclosure spans and the device lane's
// prefetch transfers are recorded only with it on.
func traceMatrix() []lattice.Cell {
	var out []lattice.Cell
	for _, c := range grid(wire) {
		c.Traced = true
		on := c
		on.PrefetchBytes = lattice.PrefetchOn
		out = append(out, c, on)
	}
	return out
}

// The subtest names keep the "dop1" of lattice.Cell.String: every cell
// runs serially, and the names stay the ones they have always been.

func byPrune(c lattice.Cell) string {
	return fmt.Sprintf("%v/%v/dop1/prune=%v", c.Format, c.Mode, !c.NoPrune)
}

func byPipe(c lattice.Cell) string {
	return fmt.Sprintf("%v/%v/dop1/pipe=%v", c.Format, c.Mode, c.PrefetchBytes > 0)
}

func byEngine(c lattice.Cell) string { return fmt.Sprintf("%v/%v/dop1", c.Format, c.Mode) }

func TestSharedCacheDifferential(t *testing.T) {
	verifyMatrix(t, cacheMatrix(footprint()), byPrune)
}
func TestPipelineDifferential(t *testing.T) { verifyMatrix(t, pipelineMatrix(), byPrune) }
func TestChaosDifferential(t *testing.T)    { verifyMatrix(t, faultMatrix(footprint()), byPipe) }
func TestFleetDifferential(t *testing.T)    { verifyMatrix(t, fleetMatrix(footprint()), byEngine) }
func TestTracingDifferential(t *testing.T)  { verifyMatrix(t, traceMatrix(), byPipe) }

// TestPipelineWithSharedCache exercises the cache-admission path:
// prefetched deliveries land in the shared segment cache and later demand
// GETs hit there (attributed via PrefetchUseful — the pipeline predicate
// of a cell with a cache).
func TestPipelineWithSharedCache(t *testing.T) {
	var cells []lattice.Cell
	for _, mode := range []skipper.Mode{skipper.ModeVanilla, skipper.ModeSkipper} {
		cells = append(cells, lattice.Cell{
			Mode: mode, Format: segment.FormatV2, MJoinCache: probeMJoinCache,
			SharedCache: footprint(), PrefetchBytes: lattice.PrefetchOn,
		})
	}
	verifyMatrix(t, cells, func(c lattice.Cell) string { return c.Mode.String() })
}

// TestPipelineCompletionDrains: a run that finishes normally with a
// generous prefetch budget (so prefetches for the final query may still
// be in flight when the client finishes) must drain its prefetcher
// without leaking goroutines.
func TestPipelineCompletionDrains(t *testing.T) {
	cell := lattice.Cell{
		Mode: skipper.ModeSkipper, Format: segment.FormatV2, MJoinCache: probeMJoinCache,
		PrefetchBytes: 64e9,
	}
	if err := lattice.Verify(lattice.ProbeDataset(), lattice.Probe, []lattice.Cell{cell}); err != nil {
		t.Fatal(err)
	}
}

// probe is the targeted tests' fixture: the probe dataset served as v2
// objects, the oracle's rows, and the base cell they all start from.
type probe struct {
	ds   *workload.Dataset
	want [][]tuple.Row
	cell lattice.Cell
}

func newProbe(t *testing.T) probe {
	t.Helper()
	base := lattice.ProbeDataset()
	want, err := lattice.Oracle(base, lattice.Probe)
	if err != nil {
		t.Fatal(err)
	}
	ds, err := objstore.ReencodeDataset(base, segment.FormatV2)
	if err != nil {
		t.Fatal(err)
	}
	return probe{ds: ds, want: want, cell: lattice.Cell{
		Mode: skipper.ModeSkipper, Format: segment.FormatV2, MJoinCache: probeMJoinCache,
		SharedCache: len(ds.Catalog.AllObjects()), KeepResults: true,
	}}
}

// cluster builds the cell's cluster over `tenants` clients sharing the
// probe dataset.
func (p probe) cluster(c lattice.Cell, tenants int) *skipper.Cluster {
	return c.Cluster(lattice.Shared(p.ds, lattice.Probe, tenants, lattice.Groups))
}

// requireSurvived holds a run that rode out a crash to the oracle, the
// invariants (in their crash-window form) and the no-leak rule.
func (p probe) requireSurvived(t *testing.T, res *skipper.RunResult, err error, baseline int) {
	t.Helper()
	if err != nil {
		t.Fatalf("run did not survive: %v", err)
	}
	if err := lattice.CheckRows(res, p.want); err != nil {
		t.Fatal(err)
	}
	if err := res.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if err := lattice.Settle(baseline, 5*time.Second); err != nil {
		t.Fatal(err)
	}
}

// requireDrained holds an aborted run to the drain rule: no goroutine
// left.
func requireDrained(t *testing.T, baseline int) {
	t.Helper()
	if err := lattice.Settle(baseline, 5*time.Second); err != nil {
		t.Fatal(err)
	}
}

// TestDeviceSpansMatchStats: the device lane is a view over the devices'
// own counters and cannot disagree with them. On one device, on two, under
// the chaos plan and across a crash window (restarted, and never), every
// device's switch spans number its GroupSwitches, its transfer spans its
// GetsReceived — those that carried data its ObjectsServed — and its down
// spans its Crashes; every span is closed and none ends before its
// predecessor (lattice.CheckDeviceLane, which Verify also holds every
// traced cell to). The lane is not vacuous, and losing a span fails it.
func TestDeviceSpansMatchStats(t *testing.T) {
	p := newProbe(t)
	crash := faults.Plan{Seed: 7, CrashAt: 15 * time.Second, CrashDowntime: 20 * time.Second}
	dead := crash
	dead.CrashDowntime = 0
	for _, tc := range []struct {
		name  string
		fleet skipper.FleetSpec
	}{
		{"one device", skipper.FleetSpec{}},
		{"two devices", skipper.FleetSpec{N: 2}},
		{"chaos", skipper.FleetSpec{Faults: lattice.Chaos(42)}},
		{"restart", skipper.FleetSpec{Faults: &crash}},
		{"no restart", skipper.FleetSpec{N: 2, Replication: layout.Replication{Kind: layout.ReplicateHot}, Faults: &dead}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cell := p.cell
			cell.Fleet, cell.Retry, cell.Traced = tc.fleet, crashRetry(), true
			cl := p.cluster(cell, lattice.Tenants)
			res, err := cl.Run()
			if err != nil {
				t.Fatal(err)
			}
			spans := cl.Fleet.Device.Trace.Spans()
			if err := lattice.CheckDeviceLane(spans, res.Devices); err != nil {
				t.Fatal(err)
			}
			coalesced := 0
			for _, sp := range spans {
				if sp.Cat == trace.CatTransfer && strings.Contains(sp.Name, " coalesced") {
					coalesced++
				}
			}
			if res.CSD.GroupSwitches == 0 || res.CSD.GetsReceived == 0 || coalesced != res.CSD.GetsCoalesced {
				t.Fatalf("vacuous or miscounted lane: %d switches, %d GETs, %d spans marked coalesced of %d coalesced GETs",
					res.CSD.GroupSwitches, res.CSD.GetsReceived, coalesced, res.CSD.GetsCoalesced)
			}
			if err := lattice.CheckDeviceLane(spans[1:], res.Devices); err == nil {
				t.Fatal("a lane that lost its first span still matches the counters")
			}
		})
	}
}

// TestPerClientCacheOverridesShared checks the private-cache opt-out: a
// client with its own SegCache must not touch the cluster's shared one.
func TestPerClientCacheOverridesShared(t *testing.T) {
	p := newProbe(t)
	cl := p.cluster(p.cell, 1)
	private := segcache.NewObjects(p.cell.SharedCache)
	cl.Clients[0].SegCache = private
	res, err := cl.Run()
	if err != nil {
		t.Fatal(err)
	}
	if st := cl.SharedCache.Stats(); st.Hits+st.Misses != 0 {
		t.Fatalf("shared cache saw traffic despite private override: %+v", st)
	}
	if st := private.Stats(); st.Hits == 0 {
		t.Fatalf("private cache unused: %+v", st)
	}
	if res.Clients[0].CacheHits == 0 {
		t.Fatal("client recorded no hits")
	}
	if err := res.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// contractBreaker is a Scheduler that violates NextGroup's contract on
// its first consultation.
type contractBreaker struct{}

func (contractBreaker) Name() string { return "contract-breaker" }
func (contractBreaker) NextGroup(int, map[int][]*csd.Request, func(string) int) int {
	return -1
}

// TestClusterSurfacesSchedulerContractError pins end-to-end propagation
// of the device's typed scheduler error: through the proxy, the engines
// (both modes) and Cluster.Run.
func TestClusterSurfacesSchedulerContractError(t *testing.T) {
	p := newProbe(t)
	for _, mode := range []skipper.Mode{skipper.ModeVanilla, skipper.ModeSkipper} {
		cell := p.cell
		cell.Mode = mode
		cell.Fleet.Device = csd.DefaultConfig()
		cell.Fleet.Device.Scheduler = contractBreaker{}
		_, err := p.cluster(cell, 1).Run()
		var sce *csd.SchedulerContractError
		if !errors.As(err, &sce) {
			t.Fatalf("%v: error %v is not a SchedulerContractError", mode, err)
		}
		if sce.Returned != -1 || sce.Scheduler != "contract-breaker" {
			t.Fatalf("%v: error fields %+v", mode, sce)
		}
	}
}

// TestPipelineFailStopDrains: a run that fail-stops on a scheduler
// contract violation with prefetches in flight must still terminate —
// the device's fail-stop answers every pending and future GET with the
// error, the prefetcher quiesces, and no goroutines or cache pins leak.
func TestPipelineFailStopDrains(t *testing.T) {
	p := newProbe(t)
	for _, mode := range []skipper.Mode{skipper.ModeVanilla, skipper.ModeSkipper} {
		t.Run(fmt.Sprint(mode), func(t *testing.T) {
			baseline := runtime.NumGoroutine()
			cell := p.cell
			cell.Mode, cell.PrefetchBytes = mode, lattice.PrefetchOn
			cell.Fleet.Device = csd.DefaultConfig()
			cell.Fleet.Device.Scheduler = contractBreaker{}
			cl := p.cluster(cell, 1)
			_, err := cl.Run()
			var sce *csd.SchedulerContractError
			if !errors.As(err, &sce) {
				t.Fatalf("%v: error %v is not a SchedulerContractError", mode, err)
			}
			requireDrained(t, baseline)
		})
	}
}

// crashRetry rides out a crash window: backoff sums that outlast the
// downtime, and no per-query budget because a crash fails every
// outstanding object at once.
func crashRetry() *skipper.RetryPolicy {
	return &skipper.RetryPolicy{MaxAttempts: 40, BaseBackoff: 500 * time.Millisecond, MaxBackoff: 8 * time.Second, Budget: -1}
}

// TestCrashRestartSurvived: a crash window in the middle of the run
// with a scheduled restart must be survived by both engines — refused
// and failed GETs are retried with backoff until the device returns,
// and results still match the oracle.
func TestCrashRestartSurvived(t *testing.T) {
	p := newProbe(t)
	for _, mode := range []skipper.Mode{skipper.ModeVanilla, skipper.ModeSkipper} {
		for _, pipe := range []bool{false, true} {
			t.Run(fmt.Sprintf("%v/pipe=%v", mode, pipe), func(t *testing.T) {
				baseline := runtime.NumGoroutine()
				cell := p.cell
				cell.Mode, cell.Retry = mode, crashRetry()
				cell.Fleet.Faults = &faults.Plan{Seed: 7, CrashAt: 15 * time.Second, CrashDowntime: 20 * time.Second}
				if pipe {
					cell.PrefetchBytes = lattice.PrefetchOn
				}
				res, err := p.cluster(cell, lattice.Tenants).Run()
				p.requireSurvived(t, res, err, baseline)
				if res.CSD.Crashes != 1 || res.CSD.Restarts != 1 {
					t.Fatalf("crashes=%d restarts=%d, want 1/1", res.CSD.Crashes, res.CSD.Restarts)
				}
				retries := 0
				for _, cs := range res.Clients {
					retries += cs.Retries
				}
				if retries == 0 {
					t.Fatal("crash window survived without a single retry — schedule missed the run")
				}
			})
		}
	}
}

// requirePermanentCrash holds a failed run to the typed-failure contract:
// the error carries the non-restarting DeviceDownError and classifies as a
// fault, and the run still hands back the device counters that saw it.
func requirePermanentCrash(t *testing.T, res *skipper.RunResult, err error) {
	t.Helper()
	var de *csd.DeviceDownError
	if !errors.As(err, &de) {
		t.Fatalf("error %v does not carry a DeviceDownError", err)
	}
	if de.Restarting {
		t.Fatal("permanent crash reported Restarting=true")
	}
	if !skipper.IsFaultError(err) {
		t.Fatalf("IsFaultError(%v) = false, want true", err)
	}
	if res == nil || res.Devices[0].Crashes != 1 || res.Devices[0].DownErrors == 0 {
		t.Fatalf("failed run did not hand back the crashed device's counters: %+v", res)
	}
}

// TestPermanentCrashTyped: a crash with no restart is not retryable —
// the run must fail promptly with the typed DeviceDownError (wrapped in
// the query error chain), not burn the retry policy against a dead box.
func TestPermanentCrashTyped(t *testing.T) {
	p := newProbe(t)
	cell := p.cell
	cell.SharedCache = 0
	cell.Fleet.Faults = &faults.Plan{Seed: 7, CrashAt: 15 * time.Second}
	res, err := p.cluster(cell, 1).Run()
	requirePermanentCrash(t, res, err)
}

// TestFleetPermanentCrashNoReplica: without replication a permanent
// device-0 crash must surface as the typed DeviceDownError — the fleet
// has no replica to fail over to, and the proxy must not burn the retry
// policy against the dead device.
func TestFleetPermanentCrashNoReplica(t *testing.T) {
	p := newProbe(t)
	cell := p.cell
	cell.Fleet = skipper.FleetSpec{N: 2, Faults: &faults.Plan{Seed: 7, CrashAt: 15 * time.Second}}
	res, err := p.cluster(cell, lattice.Tenants).Run()
	requirePermanentCrash(t, res, err)
}

// TestFleetFailoverUnderCrash: device 0 of a two-device fleet dies
// permanently mid-run. With the demanded working set hot-replicated,
// every query must complete with results identical to the oracle:
// deliveries failed by the crash are re-requested from the replica
// (counted failovers on the demand path), later demand routes around the
// dead device, and no goroutine is leaked.
func TestFleetFailoverUnderCrash(t *testing.T) {
	p := newProbe(t)
	for _, pipe := range []bool{false, true} {
		t.Run(fmt.Sprintf("pipe=%v", pipe), func(t *testing.T) {
			baseline := runtime.NumGoroutine()
			cell := p.cell
			cell.Fleet = skipper.FleetSpec{
				N: 2, Replication: layout.Replication{Kind: layout.ReplicateHot},
				Faults: &faults.Plan{Seed: 7, CrashAt: 15 * time.Second}, // no restart: dead for good
			}
			if pipe {
				cell.PrefetchBytes = lattice.PrefetchOn
			}
			res, err := p.cluster(cell, lattice.Tenants).Run()
			p.requireSurvived(t, res, err, baseline)
			if res.Devices[0].Crashes != 1 || res.Devices[1].Crashes != 0 {
				t.Fatalf("crashes d0=%d d1=%d, want 1 and 0 (the window is device 0's alone)", res.Devices[0].Crashes, res.Devices[1].Crashes)
			}
			// Anti-vacuous, demand path only: the prefetcher recovers from a
			// dead device by silently re-routing, so counted failovers are
			// only guaranteed when every GET is a demand GET.
			failovers := 0
			for _, cs := range res.Clients {
				failovers += cs.Failovers
			}
			if !pipe && failovers == 0 {
				t.Fatal("fleet survived the crash without a single counted failover")
			}
		})
	}
}

// stormCell pins a run inside fault recovery: every transfer fails,
// forever, so only the retry policy or a context can end it.
func (p probe) stormCell(retry *skipper.RetryPolicy) lattice.Cell {
	cell := p.cell
	cell.Retry = retry
	cell.Fleet.Faults = &faults.Plan{Seed: 3, TransientRate: 1.0, MaxFaultsPerObject: -1}
	return cell
}

// TestCancelDuringRetryBackoff: a context that expires while the proxy
// is in fault recovery (an endless transient storm under an unlimited
// policy keeps it in the backoff loop) must abort the run with the
// context error, drain the pipeline machinery and leave no cache pins or
// goroutines behind.
func TestCancelDuringRetryBackoff(t *testing.T) {
	p := newProbe(t)
	for _, mode := range []skipper.Mode{skipper.ModeVanilla, skipper.ModeSkipper} {
		t.Run(fmt.Sprint(mode), func(t *testing.T) {
			baseline := runtime.NumGoroutine()
			ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
			defer cancel()
			cell := p.stormCell(&skipper.RetryPolicy{MaxAttempts: 1 << 20, BaseBackoff: 250 * time.Millisecond, MaxBackoff: 8 * time.Second, Budget: -1})
			cell.Mode, cell.PrefetchBytes = mode, lattice.PrefetchOn
			cl := p.cluster(cell, 1)
			cl.Clients[0].Ctx = ctx
			_, err := cl.Run()
			if !errors.Is(err, context.DeadlineExceeded) {
				t.Fatalf("error %v does not wrap context.DeadlineExceeded", err)
			}
			requireDrained(t, baseline)
		})
	}
}

// TestRetryExhaustionTyped: when the per-object fault cap exceeds what
// the policy will spend, the query must fail with RetryExhaustedError —
// carrying the object and attempt count — rather than loop forever, and
// the failed run must still report the faults and retries it saw.
func TestRetryExhaustionTyped(t *testing.T) {
	p := newProbe(t)
	retry := &skipper.RetryPolicy{MaxAttempts: 3, BaseBackoff: time.Millisecond, MaxBackoff: time.Millisecond, Budget: -1}
	res, err := p.cluster(p.stormCell(retry), 1).Run()
	var re *skipper.RetryExhaustedError
	if !errors.As(err, &re) {
		t.Fatalf("error %v does not carry a RetryExhaustedError", err)
	}
	if re.Attempts != retry.MaxAttempts {
		t.Fatalf("exhausted after %d attempts, policy allows %d", re.Attempts, retry.MaxAttempts)
	}
	var te *csd.TransientError
	if !errors.As(err, &te) {
		t.Fatalf("exhaustion error %v does not wrap the last TransientError", err)
	}
	if !skipper.IsFaultError(err) {
		t.Fatalf("IsFaultError(%v) = false, want true", err)
	}
	if res == nil || res.Faults[0].Transient == 0 || res.Clients[0].Retries == 0 {
		t.Fatalf("failed run did not hand back its fault counters: %+v", res)
	}
}
