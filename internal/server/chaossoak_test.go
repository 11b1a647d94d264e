// Chaos soak: the serving layer under a live fault plan — transient GET
// failures, latency stalls, bit-flipped payloads and a crash/restart
// window — must keep returning byte-identical results. Concurrent
// closed-loop clients compare every frame against the fault-free
// oracle; afterwards the fault counters and metric families must show
// the storm actually happened, and the drain hygiene bar from the clean
// soak still holds (no leaked goroutines). Runs under CI's -race job.
package server

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"regexp"
	"runtime"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/faults"
	"repro/internal/skipper"
)

// chaosServerPlan mirrors the skipper-level chaos gate's rates (the
// serving dataset is small, so low rates inject almost nothing) and
// adds a crash window long queries cross: every query whose simulated
// run passes 15s sees the device die and come back 20s later.
func chaosServerPlan() *faults.Plan {
	return &faults.Plan{
		Seed:               42,
		TransientRate:      0.40,
		StallRate:          0.20,
		Stall:              3 * time.Second,
		CorruptRate:        0.45,
		MaxFaultsPerObject: 3,
		CrashAt:            15 * time.Second,
		CrashDowntime:      20 * time.Second,
	}
}

// chaosServerRetry rides out the downtime window: generous attempts,
// backoff deep enough to sleep across the restart.
func chaosServerRetry() *skipper.RetryPolicy {
	return &skipper.RetryPolicy{
		MaxAttempts: 40,
		BaseBackoff: 500 * time.Millisecond,
		MaxBackoff:  8 * time.Second,
		Budget:      -1,
	}
}

// scrapeMetrics fetches the Prometheus exposition over the debug mux.
func scrapeMetrics(t *testing.T, s *Server) string {
	t.Helper()
	srv := httptest.NewServer(s.DebugHandler())
	defer srv.Close()
	resp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(body)
}

// metricValue sums the samples of one family across tenants.
func metricValue(t *testing.T, body, family string) float64 {
	t.Helper()
	re := regexp.MustCompile(`(?m)^` + family + `\{[^}]*\} ([0-9.e+-]+)$`)
	var sum float64
	for _, m := range re.FindAllStringSubmatch(body, -1) {
		v, err := strconv.ParseFloat(m[1], 64)
		if err != nil {
			t.Fatalf("%s: bad sample %q: %v", family, m[1], err)
		}
		sum += v
	}
	return sum
}

func TestChaosSoakServesCleanResults(t *testing.T) {
	const (
		tenants        = 2
		connsPerTenant = 2
		passes         = 2
	)
	baseline := runtime.NumGoroutine()

	cfg := servingConfig(t)
	cfg.Admission = AdmissionConfig{Slots: 2, TenantSlots: 1, QueueDepth: 16}
	cfg.Tracing = true
	cfg.Fleet.Faults = chaosServerPlan()
	cfg.Retry = chaosServerRetry()
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	addr, err := s.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}

	// The oracle is a direct fault-free engine run: directRows builds its
	// own clean cluster, so the comparison is chaos-vs-clean, not
	// chaos-vs-chaos.
	oracle := make(map[string]string, len(soakQueries))
	for _, q := range soakQueries {
		oracle[q] = strings.Join(directRows(t, s, q), "\n")
	}

	for _, err := range soakClients(addr.String(), tenants, connsPerTenant, passes, oracle) {
		t.Error(err)
	}
	if t.Failed() {
		t.FailNow()
	}

	// Every offered query completed despite the storm — recovery, not
	// luck: the fault counters below prove the storm was real.
	perTenant := connsPerTenant * passes * len(soakQueries)
	var injected, retries, corrupt int64
	for tn := 0; tn < tenants; tn++ {
		ts := s.tenantState(tn)
		snap := ts.counters.Snapshot()
		if snap.Completed != int64(perTenant) || snap.Failed != 0 {
			t.Errorf("tenant %d: completed %d failed %d, want %d/0", tn, snap.Completed, snap.Failed, perTenant)
		}
		if ts.faultsInjected.Load() == 0 {
			t.Errorf("tenant %d saw no injected faults — the chaos soak is vacuous", tn)
		}
		injected += ts.faultsInjected.Load()
		retries += ts.retries.Load()
		corrupt += ts.corruptSegments.Load()
	}
	if retries == 0 {
		t.Error("no query retried a transfer: recovery path never exercised")
	}
	if corrupt == 0 {
		t.Error("no corrupt delivery detected: checksum path never exercised")
	}

	// The new metric families are live on /metrics and agree with the
	// internal counters.
	body := scrapeMetrics(t, s)
	for _, family := range []string{"skipper_faults_injected", "skipper_retries", "skipper_corrupt_segments"} {
		if !strings.Contains(body, "# TYPE "+family+" counter") {
			t.Errorf("/metrics missing family %s", family)
		}
	}
	if got := metricValue(t, body, "skipper_faults_injected"); got != float64(injected) {
		t.Errorf("exposition reports %v injected faults, counters say %d", got, injected)
	}
	if got := metricValue(t, body, "skipper_retries"); got != float64(retries) {
		t.Errorf("exposition reports %v retries, counters say %d", got, retries)
	}
	if got := metricValue(t, body, "skipper_corrupt_segments"); got != float64(corrupt) {
		t.Errorf("exposition reports %v corrupt segments, counters say %d", got, corrupt)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown was not clean: %v", err)
	}
	requireSettle(t, baseline)
}

// TestChaosRetriesSurfaceInFrames pins the client-visible accounting:
// a query that recovered from faults reports its re-requests in the
// result frame.
func TestChaosRetriesSurfaceInFrames(t *testing.T) {
	cfg := servingConfig(t)
	// Demand-path-only (no prefetcher) so every injected transient is a
	// proxy retry rather than a silently dropped prefetch candidate.
	cfg.PrefetchBytes = 0
	cfg.Fleet.Faults = chaosServerPlan()
	cfg.Retry = chaosServerRetry()
	s, addr := startServer(t, cfg)
	c := dialServer(t, addr)
	resp := c.roundTrip(t, Request{ID: "q1", SQL: soakQueries[1]})
	if resp.Type != "result" {
		t.Fatalf("query failed under chaos: %+v", resp)
	}
	if want := strings.Join(directRows(t, s, soakQueries[1]), "\n"); strings.Join(resp.Rows, "\n") != want {
		t.Fatalf("chaotic rows diverge from clean oracle")
	}
	if resp.Retries == 0 {
		t.Fatal("frame reports zero retries under a 40% transient rate — accounting lost")
	}
}

// TestPermanentCrashDegradesGracefully: a permanent mid-run crash fails
// the affected queries with a typed exec error, but the session, the
// tenant's cached state and the rest of the server keep working —
// repeated attempts make progress through the cache (each run caches
// the segments transferred before the crash instant) until the query
// completes entirely from memory. Other tenants are untouched.
func TestPermanentCrashDegradesGracefully(t *testing.T) {
	cfg := servingConfig(t)
	cfg.Fleet.Faults = &faults.Plan{Seed: 7, CrashAt: 15 * time.Second}
	s, addr := startServer(t, cfg)
	want := strings.Join(directRows(t, s, servingQuery), "\n")

	c := dialServer(t, addr)
	failures := 0
	var final *Response
	for attempt := 0; attempt < 30; attempt++ {
		resp := c.roundTrip(t, Request{ID: fmt.Sprintf("a%d", attempt), SQL: servingQuery})
		if resp.Type == "result" {
			final = resp
			break
		}
		if resp.Code != CodeExec || !strings.Contains(resp.Error, "crashed (no restart)") {
			t.Fatalf("attempt %d: want typed exec/device-crash error, got %+v", attempt, resp)
		}
		failures++
	}
	if final == nil {
		t.Fatal("query never completed: cached progress across attempts is not accumulating")
	}
	if failures == 0 {
		t.Fatal("no attempt hit the crash window — the degradation test is vacuous")
	}
	if strings.Join(final.Rows, "\n") != want {
		t.Fatalf("post-crash result diverges from clean oracle")
	}

	// A different tenant is completely unaffected: admin verbs and its
	// own accounting still serve.
	c2 := dialServer(t, addr)
	tenant := 1
	if resp := c2.roundTrip(t, Request{ID: "h", Op: OpHello, Tenant: &tenant}); resp.Type != "hello" {
		t.Fatalf("healthy tenant cannot bind: %+v", resp)
	}
	if resp := c2.roundTrip(t, Request{ID: "s", Op: OpStats}); resp.Type != "stats" {
		t.Fatalf("healthy tenant cannot read stats: %+v", resp)
	}
	snap := s.tenantState(0).counters.Snapshot()
	if snap.Failed != int64(failures) || snap.Completed != 1 {
		t.Fatalf("tenant 0 counters: %+v, want failed=%d completed=1", snap, failures)
	}
}

// TestFailedServedQueriesReturnTheirLeases: a served query that fails
// against a dead device returns the leases its run took on the tenant's
// segment cache, as one that completes does, so the entries it read can
// give their decoded columns back once evicted.
func TestFailedServedQueriesReturnTheirLeases(t *testing.T) {
	cfg := servingConfig(t)
	cfg.Fleet.Faults = &faults.Plan{Seed: 7, CrashAt: 15 * time.Second}
	s, addr := startServer(t, cfg)
	c := dialServer(t, addr)
	failed := 0
	for attempt := 0; attempt < 30; attempt++ {
		resp := c.roundTrip(t, Request{ID: fmt.Sprintf("a%d", attempt), SQL: servingQuery})
		if resp.Type != "result" {
			failed++
		}
		if st := s.tenantState(0).cache.Stats(); st.Leases != 0 {
			t.Fatalf("attempt %d (%s): %d leases out on the tenant cache after the response", attempt, resp.Type, st.Leases)
		}
		if resp.Type == "result" {
			break
		}
	}
	if failed == 0 || s.tenantState(0).cache.Stats().Inserted == 0 {
		t.Fatal("no served query failed after leasing an entry: the test is vacuous")
	}
}
