package server

import (
	"fmt"
	"strings"
	"sync"
	"testing"

	"repro/internal/layout"
	"repro/internal/objstore"
	"repro/internal/segment"
	"repro/internal/skipper"
	"repro/internal/sql"
	"repro/internal/workload"
)

// microSQL is the serving benchmark's microquery: a tiny join that the
// tenant's segment cache serves after its first run, so a served op is
// the per-query fixed cost and nothing else.
const microSQL = `SELECT n_name, r_name FROM nation, region WHERE n_regionkey = r_regionkey ORDER BY n_name`

// microSession is a server over ds with the benchmark's serving settings
// (per-tenant segment caches of 8 objects) and a session bound to tenant 0
// that has run microSQL once.
func microSession(tb testing.TB, ds *workload.Dataset) *Session {
	tb.Helper()
	cfg := NewConfig(ds)
	cfg.SegCacheObjects = 8
	s, err := New(cfg)
	if err != nil {
		tb.Fatal(err)
	}
	sess, tenant := s.NewSession(), 0
	if resp := sess.Do(&Request{Op: OpQuery, Tenant: &tenant, SQL: microSQL}); resp.Type != "result" || resp.RowCount == 0 {
		tb.Fatalf("micro statement: %s %s: %s (%d rows)", resp.Type, resp.Code, resp.Error, resp.RowCount)
	}
	return sess
}

// TestServedQueryAllocationsDoNotScaleWithObjects: the server places its
// fleet once, at New, so a served query allocates for its own kernel,
// devices and client — not for the layout and placement of every object
// the dataset holds. The microquery reads the same two one-object tables
// over a dataset of 11 objects and one of 45; its allocations may grow by
// 5 % at most.
func TestServedQueryAllocationsDoNotScaleWithObjects(t *testing.T) {
	small := servingDataset(t)
	large, err := objstore.ReencodeDataset(
		workload.TPCH(0, workload.TPCHConfig{SF: 30, RowsPerObject: 4, Seed: 1, ClusteredDates: true}),
		segment.FormatV2)
	if err != nil {
		t.Fatal(err)
	}
	if n, m := len(small.Catalog.AllObjects()), len(large.Catalog.AllObjects()); m < 4*n {
		t.Fatalf("datasets hold %d and %d objects; the test wants a 4x difference", n, m)
	}
	allocs := func(ds *workload.Dataset) float64 {
		sess := microSession(t, ds)
		tenant := 0
		req := &Request{Op: OpQuery, Tenant: &tenant, SQL: microSQL}
		return testing.AllocsPerRun(50, func() {
			if resp := sess.Do(req); resp.Type != "result" {
				t.Fatalf("%s: %s", resp.Code, resp.Error)
			}
		})
	}
	a, b := allocs(small), allocs(large)
	t.Logf("allocations per served microquery: %.1f over %d objects, %.1f over %d",
		a, len(small.Catalog.AllObjects()), b, len(large.Catalog.AllObjects()))
	if b > 1.05*a {
		t.Errorf("a served microquery allocates %.1f times over 4x the objects (%.1f -> %.1f); want at most 1.05", b/a, a, b)
	}
}

// TestConcurrentTenantsShareOneFleet: sessions of four tenants run the
// shared statements at once on one server whose fleet — two devices,
// every object on both, the chaos soak's seeded fault plan with device 0's
// crash window — was placed once at New. Every response is the
// reference's rows. Per tenant, device 1 received exactly the GETs the
// tenant's demand and prefetch ledgers routed to it; device 0 may have
// refused some while down, so it received at most the ledgers' count, and
// fewer only for a tenant whose queries saw it crash.
func TestConcurrentTenantsShareOneFleet(t *testing.T) {
	const tenants, rounds = 4, 2
	cfg := servingConfig(t)
	cfg.Fleet = skipper.FleetSpec{
		N:           2,
		Replication: layout.ReplicateFull,
		Faults:      chaosServerPlan(),
	}
	cfg.Retry = chaosServerRetry()
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if s.fleet == nil {
		t.Fatal("a full-replication server placed no fleet at New")
	}
	ds := s.cfg.Dataset
	want := make([]string, len(sharedStatements))
	for i, text := range sharedStatements {
		spec, err := (&sql.Planner{Catalog: ds.Catalog}).Plan(text)
		if err != nil {
			t.Fatal(err)
		}
		rows, err := workload.Evaluate(ds, spec)
		if err != nil {
			t.Fatal(err)
		}
		rendered := make([]string, len(rows))
		for j, r := range rows {
			rendered[j] = r.String()
		}
		want[i] = strings.Join(rendered, "\n")
	}

	var wg sync.WaitGroup
	// Per tenant: the GETs each device received, and the crashes its
	// queries saw.
	received := make([][2]int, tenants)
	crashes := make([]int, tenants)
	errs := make(chan error, tenants*rounds*len(sharedStatements))
	for tenant := 0; tenant < tenants; tenant++ {
		wg.Add(1)
		go func(tenant int) {
			defer wg.Done()
			sess := s.NewSession()
			for r := 0; r < rounds; r++ {
				for k := range sharedStatements {
					i := (tenant + k) % len(sharedStatements)
					resp, _ := sess.RoundTrip(&Request{ID: fmt.Sprint(i), Tenant: &tenant, SQL: sharedStatements[i]})
					if resp.Type != "result" {
						errs <- fmt.Errorf("tenant %d statement %d: %s: %s", tenant, i, resp.Code, resp.Error)
						continue
					}
					if strings.Join(resp.Rows, "\n") != want[i] {
						errs <- fmt.Errorf("tenant %d statement %d: rows diverge from the reference", tenant, i)
					}
					for d, n := range resp.DeviceGets {
						received[tenant][d] += n
					}
					crashes[tenant] += resp.Crashes
				}
			}
		}(tenant)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}

	var perDevice [2]int
	var injected, failovers int64
	for tenant := 0; tenant < tenants; tenant++ {
		ts := s.tenantState(tenant)
		injected += ts.faultsInjected.Load()
		failovers += ts.failovers.Load()
		for d := range perDevice {
			got := int64(received[tenant][d])
			ledger := ts.deviceGets[d].Load() + ts.devicePrefetchGets[d].Load()
			if got != ledger && (d != 0 || got > ledger || crashes[tenant] == 0) {
				t.Errorf("tenant %d device %d: the device received %d GETs, the tenant's ledgers say %d (%d crashes seen)",
					tenant, d, got, ledger, crashes[tenant])
			}
			perDevice[d] += received[tenant][d]
		}
	}
	if perDevice[0] == 0 || perDevice[1] == 0 || injected == 0 || failovers == 0 {
		t.Errorf("GETs per device %v, %d faults injected, %d failovers: the fleet was not exercised", perDevice, injected, failovers)
	}
}

// BenchmarkServedQuery times one served statement over an in-process
// session — plan lookup, admission, the run on the server's fleet and the
// rendered response, without a socket — so the served path can be profiled
// with `go test -bench ServedQuery -memprofile`. A test binary rebuilds and
// compares each validated join's probe plan on every run (mjoin's in-place
// change check), so its allocations include that check's.
func BenchmarkServedQuery(b *testing.B) {
	statements := []struct{ name, sql string }{
		{"micro", microSQL},
		{"dash", sharedStatements[0]},
	}
	for _, st := range statements {
		b.Run(st.name, func(b *testing.B) {
			sess := microSession(b, servingDataset(b))
			tenant := 0
			req := &Request{Op: OpQuery, Tenant: &tenant, SQL: st.sql}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if resp := sess.Do(req); resp.Type != "result" {
					b.Fatalf("%s: %s", resp.Code, resp.Error)
				}
			}
		})
	}
}
