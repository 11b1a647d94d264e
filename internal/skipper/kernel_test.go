// A Fleet recycles the run kernels of its clean runs: a run takes the last
// run's simulator, devices and proxies and resets them instead of building
// new ones. These tests hold a recycled run to a run on a fresh fleet —
// every virtual quantity, row and device span — and check that no result
// shares memory with the kernel that produced it.
package skipper_test

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/faults"
	"repro/internal/lattice"
	"repro/internal/objstore"
	"repro/internal/segcache"
	"repro/internal/segment"
	"repro/internal/skipper"
	"repro/internal/sql"
	"repro/internal/trace"
	"repro/internal/workload"
)

// The statements the kernel tests serve: the serve-micro benchmark's join,
// and an aggregate over the two largest tables.
const (
	microStatement = `SELECT n_name, r_name FROM nation, region WHERE n_regionkey = r_regionkey ORDER BY n_name`
	aggStatement   = `SELECT o_orderpriority, COUNT(*) AS n FROM orders, lineitem WHERE o_orderkey = l_orderkey AND l_quantity < 30 GROUP BY o_orderpriority ORDER BY o_orderpriority`
)

// servedData is a v2 dataset and the plans of the kernel tests' statements.
type servedData struct {
	enc         *workload.Dataset
	micro, agg  skipper.QuerySpec
	microClient func(mode skipper.Mode) *skipper.Client
}

func newServedData(t testing.TB) *servedData {
	t.Helper()
	enc, err := objstore.ReencodeDataset(workload.TPCH(0, workload.TPCHConfig{SF: 8, RowsPerObject: 40, Seed: 3}), segment.FormatV2)
	if err != nil {
		t.Fatal(err)
	}
	d := &servedData{enc: enc}
	pl := &sql.Planner{Catalog: enc.Catalog}
	if d.micro, err = pl.Plan(microStatement); err != nil {
		t.Fatal(err)
	}
	if d.agg, err = pl.Plan(aggStatement); err != nil {
		t.Fatal(err)
	}
	return d
}

// client is a one-query client of the tenant, as the server makes one per
// statement, keeping its rows.
func (d *servedData) client(mode skipper.Mode, tenant int, spec skipper.QuerySpec) *skipper.Client {
	c := skipper.Options{Mode: mode}.Client(tenant, d.enc.Catalog, []skipper.QuerySpec{spec})
	c.KeepResults = true
	return c
}

// fleet places the spec over the dataset.
func (d *servedData) fleet(t testing.TB, spec skipper.FleetSpec) *skipper.Fleet {
	t.Helper()
	f, err := skipper.NewFleet(spec, nil, d.enc.Store, []*skipper.Client{d.client(skipper.ModeVanilla, 0, d.micro)})
	if err != nil {
		t.Fatal(err)
	}
	return f
}

// runView is what a run returned with its wall-clock fields masked: the
// error's text, the result and the device lane's spans.
type runView struct {
	err   string
	res   skipper.RunResult
	spans []trace.Span
}

func viewOf(res *skipper.RunResult, err error, lane *trace.QueryTrace) runView {
	var v runView
	if err != nil {
		v.err = err.Error()
	}
	if res != nil {
		v.res = *res
		v.res.Wall = 0
		v.res.Clients = make([]*skipper.ClientStats, len(res.Clients))
		for i, cs := range res.Clients {
			c := *cs
			c.WallElapsed, c.Pipe.DecodeBusy, c.MJoin.Pipe.DecodeBusy = 0, 0, 0
			v.res.Clients[i] = &c
		}
	}
	for _, sp := range lane.Spans() {
		sp.WallStart, sp.WallEnd = 0, 0
		v.spans = append(v.spans, sp)
	}
	return v
}

// servedRun runs one client on the fleet, its devices recording into a
// new lane, and returns the masked view.
func servedRun(f *skipper.Fleet, c *skipper.Client) runView {
	lane := trace.NewQueryTrace("kernel", c.Tenant, "")
	res, err := f.Run([]*skipper.Client{c}, lane)
	return viewOf(res, err, lane)
}

func requireSameRun(t *testing.T, what string, got, want runView) {
	t.Helper()
	if got.err != want.err {
		t.Fatalf("%s: error %q, a fresh fleet's %q", what, got.err, want.err)
	}
	if !reflect.DeepEqual(got.res, want.res) {
		t.Fatalf("%s differs from a fresh fleet's run:\n got %+v\nwant %+v", what, got, want)
	}
	if !reflect.DeepEqual(got.spans, want.spans) {
		t.Fatalf("%s: device lane differs from a fresh fleet's:\n got %+v\nwant %+v", what, got.spans, want.spans)
	}
}

// TestFleetKernelRecycled: one fleet serves one query eight times, and
// every run reads as the run of a fresh fleet — rows, exact counts,
// per-device statistics, switch intervals and the device lane's spans —
// while the first result still equals its fresh-fleet twin after the seven
// runs that reused its kernel. A canceled run and a run that a device
// crash fails drop their kernel, and the runs after them are unchanged.
// A crash scheduled after the query ends leaves its event unreceived on
// the device's channel: a recycled kernel must not replay it. Goroutines
// settle after all of it.
func TestFleetKernelRecycled(t *testing.T) {
	baseline := runtime.NumGoroutine()
	d := newServedData(t)
	for _, mode := range modes {
		t.Run(mode.String(), func(t *testing.T) {
			spec := skipper.FleetSpec{}
			fresh := func(spec skipper.FleetSpec, tenant int, q skipper.QuerySpec) runView {
				return servedRun(d.fleet(t, spec), d.client(mode, tenant, q))
			}
			want := fresh(spec, 1, d.agg)
			if want.err != "" || want.res.Clients[0].Rows == 0 || want.res.CSD.GetsReceived == 0 || len(want.spans) == 0 {
				t.Fatalf("the reference run moves nothing: %+v", want)
			}
			f := d.fleet(t, spec)
			first := servedRun(f, d.client(mode, 1, d.agg))
			for i := 2; i <= 8; i++ {
				requireSameRun(t, fmt.Sprintf("run %d", i), servedRun(f, d.client(mode, 1, d.agg)), want)
			}
			requireSameRun(t, "the first run, after seven more", first, want)
			if n := f.IdleKernels(); n != 1 {
				t.Fatalf("%d idle kernels after eight serial runs, want 1", n)
			}

			ctx, cancel := context.WithCancel(context.Background())
			cancel()
			canceled := d.client(mode, 1, d.agg)
			canceled.Ctx = ctx
			if _, err := f.Run([]*skipper.Client{canceled}, nil); !errors.Is(err, context.Canceled) {
				t.Fatalf("canceled run: %v", err)
			}
			if n := f.IdleKernels(); n != 0 {
				t.Fatalf("the canceled run's kernel went back to the idle list (%d idle)", n)
			}
			requireSameRun(t, "the run after a canceled one", servedRun(f, d.client(mode, 1, d.agg)), want)
			requireSameRun(t, "a second tenant's run", servedRun(f, d.client(mode, 2, d.micro)), fresh(spec, 2, d.micro))
			pair := func(f *skipper.Fleet) runView {
				lane := trace.NewQueryTrace("kernel", 0, "")
				res, err := f.Run([]*skipper.Client{d.client(mode, 2, d.micro), d.client(mode, 1, d.agg)}, lane)
				return viewOf(res, err, lane)
			}
			requireSameRun(t, "a two-client run on a one-client kernel", pair(f), pair(d.fleet(t, spec)))
			requireSameRun(t, "a one-client run on a two-client kernel", servedRun(f, d.client(mode, 1, d.agg)), want)

			dead := skipper.FleetSpec{Faults: &faults.Plan{Seed: 7, CrashAt: 5 * time.Second}} // no restart
			wantDead := fresh(dead, 1, d.agg)
			if wantDead.err == "" {
				t.Fatal("the run survived a device that crashed for good")
			}
			fd := d.fleet(t, dead)
			for i := 1; i <= 2; i++ {
				requireSameRun(t, fmt.Sprintf("failed run %d", i), servedRun(fd, d.client(mode, 1, d.agg)), wantDead)
				if n := fd.IdleKernels(); n != 0 {
					t.Fatalf("a failed run's kernel went back to the idle list (%d idle)", n)
				}
			}

			late := skipper.FleetSpec{Faults: &faults.Plan{Seed: 7, CrashAt: want.res.Makespan + time.Hour}}
			wantLate := fresh(late, 1, d.agg)
			if wantLate.err != "" || wantLate.res.Makespan != late.Faults.CrashAt || wantLate.res.CSD.Crashes != 0 {
				t.Fatalf("a crash after the query should end the run at %v without a crash: %+v", late.Faults.CrashAt, wantLate)
			}
			fl := d.fleet(t, late)
			for i := 1; i <= 3; i++ {
				requireSameRun(t, fmt.Sprintf("late-crash run %d", i), servedRun(fl, d.client(mode, 1, d.agg)), wantLate)
			}
			if n := fl.IdleKernels(); n != 1 {
				t.Fatalf("%d idle kernels after clean late-crash runs, want 1", n)
			}
		})
	}
	if err := lattice.Settle(baseline, 5*time.Second); err != nil {
		t.Fatal(err)
	}
}

// TestConcurrentStatementsRecycleKernels: two goroutines serve different
// statements on one fleet at once, as two server connections do, each
// with its tenant's segment cache shared by its runs' clients. Every round
// reads as its statement's run on a fresh fleet and holds the run
// invariants, the cache's leases and per-tenant × device GET conservation
// included. Under -race a kernel handed between the goroutines without an
// ordering edge is a reported race.
func TestConcurrentStatementsRecycleKernels(t *testing.T) {
	baseline := runtime.NumGoroutine()
	d := newServedData(t)
	rounds := 200
	if testing.Short() {
		rounds = 20
	}
	specs := []skipper.QuerySpec{d.micro, d.agg}
	run := func(f *skipper.Fleet, tenant int) (runView, error) {
		c := d.client(skipper.ModeSkipper, tenant, specs[tenant])
		res, err := f.RunShared([]*skipper.Client{c}, segcache.NewObjects(4))
		if err == nil {
			err = res.CheckInvariants()
		}
		return viewOf(res, err, nil), err
	}
	want := make([]runView, len(specs))
	for tenant := range specs {
		var err error
		if want[tenant], err = run(d.fleet(t, skipper.FleetSpec{}), tenant); err != nil {
			t.Fatal(err)
		}
		if want[tenant].res.Cache == nil || want[tenant].res.Cache.Hits == 0 && want[tenant].res.Cache.Inserted == 0 {
			t.Fatalf("tenant %d's reference run never used its cache: %+v", tenant, want[tenant].res.Cache)
		}
	}
	f := d.fleet(t, skipper.FleetSpec{})
	var wg sync.WaitGroup
	errs := make([]error, len(specs))
	for tenant := range specs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for round := range rounds {
				got, err := run(f, tenant)
				if err == nil && !reflect.DeepEqual(got, want[tenant]) {
					err = fmt.Errorf("differs from a fresh fleet's run:\n got %+v\nwant %+v", got, want[tenant])
				}
				if err != nil {
					errs[tenant] = fmt.Errorf("tenant %d round %d: %w", tenant, round, err)
					return
				}
			}
		}()
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		t.Fatal(err)
	}
	if n := f.IdleKernels(); n < 1 || n > len(specs) {
		t.Fatalf("%d idle kernels after two connections' runs, want 1 or 2", n)
	}
	if err := lattice.Settle(baseline, 5*time.Second); err != nil {
		t.Fatal(err)
	}
}

// TestServedRunAllocations: a repeat run of the serve-micro statement on a
// fleet that has served it before — the server's Options.Client, a warm
// tenant cache, Fleet.Run — allocates for the query, not for a simulator,
// devices and proxies: the fleet recycles its kernel. The bound is the
// measured count, 75 in a test binary (whose plan check compiles the
// join's plan again on every run), with 5 % of margin; with a kernel built
// per run the same loop measured 123.
func TestServedRunAllocations(t *testing.T) {
	const bound = 79.0
	d := newServedData(t)
	f := d.fleet(t, skipper.FleetSpec{})
	cache := segcache.NewObjects(8)
	opts := skipper.Options{Mode: skipper.ModeSkipper}
	var rows int64
	served := func() {
		c := opts.Client(0, d.enc.Catalog, []skipper.QuerySpec{d.micro})
		c.SegCache = cache
		res, err := f.Run([]*skipper.Client{c}, nil)
		if err != nil {
			t.Fatal(err)
		}
		rows = res.Clients[0].Rows
	}
	served()
	allocs := testing.AllocsPerRun(50, served)
	t.Logf("%.1f allocations per served run returning %d rows", allocs, rows)
	if rows == 0 {
		t.Fatal("the statement returns no rows: the run moves nothing")
	}
	if allocs > bound {
		t.Fatalf("%.1f allocations per served run, bound %.1f", allocs, bound)
	}
}
