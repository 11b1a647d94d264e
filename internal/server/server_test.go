// End-to-end serving tests over real sockets: session binding, typed
// error frames, deadlines and cancellation, STATS, and drain hygiene
// (no leaked goroutines). Runs under CI's -race job.
package server

import (
	"bufio"
	"context"
	"encoding/json"
	"net"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/objstore"
	"repro/internal/segment"
	"repro/internal/skipper"
	"repro/internal/tuple"
	"repro/internal/workload"
)

// servingDataset builds the date-clustered TPC-H dataset the serving
// tests run over, re-encoded to the columnar v2 wire format. Built once
// per process: generation dominates test time and the dataset is
// immutable.
var (
	servingOnce sync.Once
	servingDS   *workload.Dataset
	servingErr  error
)

func servingDataset(t testing.TB) *workload.Dataset {
	t.Helper()
	servingOnce.Do(func() {
		ds := workload.TPCH(0, workload.TPCHConfig{SF: 4, RowsPerObject: 4, Seed: 1, ClusteredDates: true})
		servingDS, servingErr = objstore.ReencodeDataset(ds, segment.FormatV2)
	})
	if servingErr != nil {
		t.Fatal(servingErr)
	}
	return servingDS
}

// servingConfig is the standard test server: skipper engine, pruning,
// per-tenant segment caches, prefetch on.
func servingConfig(t *testing.T) Config {
	cfg := NewConfig(servingDataset(t))
	cfg.SegCacheObjects = 8
	cfg.PrefetchBytes = 2e9
	return cfg
}

// startServer boots a server on an ephemeral port and tears it down
// with the test.
func startServer(t *testing.T, cfg Config) (*Server, net.Addr) {
	t.Helper()
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	addr, err := s.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := s.Shutdown(ctx); err != nil {
			t.Errorf("shutdown: %v", err)
		}
	})
	return s, addr
}

// wireClient is one test session over a real socket.
type wireClient struct {
	conn net.Conn
	enc  *json.Encoder
	dec  *json.Decoder
}

func dialServer(t *testing.T, addr net.Addr) *wireClient {
	t.Helper()
	conn, err := net.Dial("tcp", addr.String())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	return &wireClient{conn: conn, enc: json.NewEncoder(conn), dec: json.NewDecoder(bufio.NewReader(conn))}
}

// roundTrip sends one frame and reads one response.
func (c *wireClient) roundTrip(t *testing.T, req Request) *Response {
	t.Helper()
	if err := c.enc.Encode(&req); err != nil {
		t.Fatalf("send: %v", err)
	}
	return c.recv(t)
}

func (c *wireClient) recv(t *testing.T) *Response {
	t.Helper()
	c.conn.SetReadDeadline(time.Now().Add(30 * time.Second))
	var resp Response
	if err := c.dec.Decode(&resp); err != nil {
		t.Fatalf("recv: %v", err)
	}
	return &resp
}

// sendRaw writes raw bytes (malformed frames the Encoder would fix up).
func (c *wireClient) sendRaw(t *testing.T, raw string) {
	t.Helper()
	if _, err := c.conn.Write([]byte(raw)); err != nil {
		t.Fatalf("send raw: %v", err)
	}
}

const servingQuery = "SELECT n_name, r_name FROM nation, region WHERE n_regionkey = r_regionkey ORDER BY n_name LIMIT 8"

// TestServerQueryResult: a query over the wire returns the same rows as
// a direct single-shot engine run, with sane accounting.
func TestServerQueryResult(t *testing.T) {
	s, addr := startServer(t, servingConfig(t))
	c := dialServer(t, addr)
	resp := c.roundTrip(t, Request{ID: "q1", SQL: servingQuery})
	if resp.Type != "result" || resp.ID != "q1" {
		t.Fatalf("unexpected frame: %+v", resp)
	}
	want := directRows(t, s, servingQuery)
	if strings.Join(resp.Rows, "\n") != strings.Join(want, "\n") {
		t.Fatalf("wire rows diverge from direct run:\nwire:   %v\ndirect: %v", resp.Rows, want)
	}
	if resp.RowCount != len(resp.Rows) || resp.RowCount == 0 {
		t.Fatalf("row count %d does not match %d rows", resp.RowCount, len(resp.Rows))
	}
	if resp.VirtualUS <= 0 || resp.Gets <= 0 {
		t.Fatalf("missing accounting: virtual %dus, %d gets", resp.VirtualUS, resp.Gets)
	}
}

// TestNewRejectsMalformedOptions: execution settings no query can run
// with fail New, before anything is served. A zero retry policy used to
// panic inside the first query's simulated client and take the process
// down.
func TestNewRejectsMalformedOptions(t *testing.T) {
	for name, set := range map[string]func(*Config){
		"zero retry policy":       func(c *Config) { c.Retry = &skipper.RetryPolicy{} },
		"negative retry backoff":  func(c *Config) { c.Retry = &skipper.RetryPolicy{MaxAttempts: 1, BaseBackoff: -1} },
		"unknown engine":          func(c *Config) { c.Mode = skipper.Mode(9) },
		"negative MJoin cache":    func(c *Config) { c.CacheObjects = -1 },
		"negative prefetch bytes": func(c *Config) { c.PrefetchBytes = -1 },
	} {
		t.Run(name, func(t *testing.T) {
			cfg := servingConfig(t)
			set(&cfg)
			if s, err := New(cfg); err == nil {
				s.Shutdown(context.Background())
				t.Fatalf("New accepted %+v", cfg.Options)
			}
		})
	}
}

// directRows runs the statement through the same engine configuration
// without the serving layer — the oracle for wire comparisons.
func directRows(t *testing.T, s *Server, sqlText string) []string {
	t.Helper()
	spec, err := s.planner.Plan(sqlText)
	if err != nil {
		t.Fatal(err)
	}
	client := s.cfg.Options.Client(0, s.cfg.Dataset.Catalog, []skipper.QuerySpec{spec})
	client.KeepResults = true
	res, err := (&skipper.Cluster{Clients: []*skipper.Client{client}, Store: s.store}).Run()
	if err != nil {
		t.Fatal(err)
	}
	rows := res.Clients[0].PerQuery[0].Results
	out := make([]string, len(rows))
	for i, r := range rows {
		out[i] = r.String()
	}
	return out
}

// TestServerSessionCache: a tenant's segment cache persists across
// queries and connections — the second identical query hits it.
func TestServerSessionCache(t *testing.T) {
	_, addr := startServer(t, servingConfig(t))
	c1 := dialServer(t, addr)
	tn := 1
	cold := c1.roundTrip(t, Request{Tenant: &tn, SQL: servingQuery})
	if cold.Type != "result" {
		t.Fatalf("cold query failed: %+v", cold)
	}
	// Same tenant, new connection: the cache outlives the session.
	c2 := dialServer(t, addr)
	warm := c2.roundTrip(t, Request{Tenant: &tn, SQL: servingQuery})
	if warm.Type != "result" {
		t.Fatalf("warm query failed: %+v", warm)
	}
	if warm.CacheHits <= cold.CacheHits {
		t.Fatalf("reconnect lost the cache: cold %d hits, warm %d", cold.CacheHits, warm.CacheHits)
	}
	if warm.VirtualUS >= cold.VirtualUS {
		t.Fatalf("warm run not faster in virtual time: cold %dus, warm %dus", cold.VirtualUS, warm.VirtualUS)
	}
}

// TestServerTenantBinding: out-of-range tenants are refused; a bound
// session cannot switch tenants but stays usable after the refusal.
func TestServerTenantBinding(t *testing.T) {
	cfg := servingConfig(t)
	cfg.MaxTenants = 4
	_, addr := startServer(t, cfg)
	c := dialServer(t, addr)
	tooBig := 4
	if resp := c.roundTrip(t, Request{Tenant: &tooBig, Op: OpHello}); resp.Code != CodeTenant {
		t.Fatalf("tenant 4 of [0,4) accepted: %+v", resp)
	}
	one := 1
	if resp := c.roundTrip(t, Request{Tenant: &one, Op: OpHello}); resp.Type != "hello" || resp.Tenant != 1 {
		t.Fatalf("bind failed: %+v", resp)
	}
	two := 2
	resp := c.roundTrip(t, Request{Tenant: &two, SQL: servingQuery})
	if resp.Code != CodeTenant || !strings.Contains(resp.Error, "bound to tenant 1") {
		t.Fatalf("rebind not refused: %+v", resp)
	}
	// The session survives the refusal, still bound to tenant 1.
	if resp := c.roundTrip(t, Request{Tenant: &one, SQL: servingQuery}); resp.Type != "result" || resp.Tenant != 1 {
		t.Fatalf("session unusable after refused rebind: %+v", resp)
	}
}

// TestServerProtocolErrors: malformed frames answer with typed protocol
// errors and keep the session alive; an oversized line closes it.
func TestServerProtocolErrors(t *testing.T) {
	cfg := servingConfig(t)
	cfg.MaxLineBytes = 1 << 10
	_, addr := startServer(t, cfg)
	c := dialServer(t, addr)
	for _, raw := range []string{
		"not json\n",
		`{"op":"insert","sql":"x"}` + "\n",
		`{"sql":"SELECT 1"}{"sql":"SELECT 2"}` + "\n",
	} {
		c.sendRaw(t, raw)
		if resp := c.recv(t); resp.Code != CodeProtocol {
			t.Fatalf("frame %q answered %+v, want protocol error", raw, resp)
		}
	}
	// A planner error is typed too, and also survivable.
	if resp := c.roundTrip(t, Request{SQL: "SELECT x FROM nosuch"}); resp.Code != CodePlan {
		t.Fatalf("unknown table answered %+v, want plan error", resp)
	}
	if resp := c.roundTrip(t, Request{SQL: servingQuery}); resp.Type != "result" {
		t.Fatalf("session dead after protocol errors: %+v", resp)
	}
	// Oversized line: one error frame, then hangup.
	c.sendRaw(t, strings.Repeat("x", 2<<10)+"\n")
	if resp := c.recv(t); resp.Code != CodeProtocol {
		t.Fatalf("oversized line answered %+v", resp)
	}
	c.conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	if err := c.dec.Decode(&Response{}); err == nil {
		t.Fatal("connection still open after oversized line")
	}
}

// TestDuplicateOutputColumnIsAPlanError: a statement naming one output
// column twice answers a plan error that names the column (it used to
// panic while the statement was planned), and the session serves its next
// statement.
func TestDuplicateOutputColumnIsAPlanError(t *testing.T) {
	_, addr := startServer(t, servingConfig(t))
	c := dialServer(t, addr)
	for q, col := range map[string]string{
		"SELECT n_name, n_name FROM nation":                                           "n_name",
		"SELECT l_shipmode, COUNT(*) AS l_shipmode FROM lineitem GROUP BY l_shipmode": "l_shipmode",
	} {
		if resp := c.roundTrip(t, Request{SQL: q}); resp.Code != CodePlan || !strings.Contains(resp.Error, `"`+col+`"`) {
			t.Fatalf("%q answered %+v, want a plan error naming %q", q, resp, col)
		}
		if resp := c.roundTrip(t, Request{SQL: servingQuery}); resp.Type != "result" || len(resp.Rows) == 0 {
			t.Fatalf("session did not serve its next statement: %+v", resp)
		}
	}
}

// TestServerExplain: EXPLAIN renders the operator tree plus the
// data-skipping and cache-residency summaries without executing.
func TestServerExplain(t *testing.T) {
	_, addr := startServer(t, servingConfig(t))
	c := dialServer(t, addr)
	resp := c.roundTrip(t, Request{SQL: "EXPLAIN " + servingQuery})
	if resp.Type != "explain" {
		t.Fatalf("unexpected frame: %+v", resp)
	}
	for _, want := range []string{"data skipping", "segcache"} {
		if !strings.Contains(resp.Plan, want) {
			t.Fatalf("plan missing %q:\n%s", want, resp.Plan)
		}
	}
}

// TestServerDeadlineWhileQueued: a query whose deadline expires while it
// waits for a slot answers with a "deadline" frame, and the session
// keeps serving.
func TestServerDeadlineWhileQueued(t *testing.T) {
	cfg := servingConfig(t)
	cfg.Admission = AdmissionConfig{Slots: 1, QueueDepth: 4}
	s, addr := startServer(t, cfg)

	// Occupy the only slot directly so the wire query must queue.
	release, _, err := s.adm.Acquire(context.Background(), 7)
	if err != nil {
		t.Fatal(err)
	}
	c := dialServer(t, addr)
	resp := c.roundTrip(t, Request{SQL: servingQuery, DeadlineMS: 50})
	if resp.Code != CodeDeadline {
		t.Fatalf("queued-past-deadline query answered %+v, want deadline error", resp)
	}
	release()
	if resp := c.roundTrip(t, Request{SQL: servingQuery}); resp.Type != "result" {
		t.Fatalf("session dead after deadline: %+v", resp)
	}
	snap := s.tenantState(0).counters.Snapshot()
	if snap.Expired != 1 || snap.Completed != 1 {
		t.Fatalf("counters %+v, want 1 expired / 1 completed", snap)
	}
}

// TestServerOverload: with queueing disabled and the slot busy, queries
// reject immediately with the typed overloaded frame.
func TestServerOverload(t *testing.T) {
	cfg := servingConfig(t)
	cfg.Admission = AdmissionConfig{Slots: 1, QueueDepth: -1}
	s, addr := startServer(t, cfg)
	release, _, err := s.adm.Acquire(context.Background(), 7)
	if err != nil {
		t.Fatal(err)
	}
	c := dialServer(t, addr)
	start := time.Now()
	resp := c.roundTrip(t, Request{SQL: servingQuery})
	if resp.Code != CodeOverloaded {
		t.Fatalf("saturated server answered %+v, want overloaded", resp)
	}
	if waited := time.Since(start); waited > 5*time.Second {
		t.Fatalf("rejection stalled %v; backpressure must be immediate", waited)
	}
	if snap := s.tenantState(0).counters.Snapshot(); snap.Rejected != 1 {
		t.Fatalf("counters %+v, want 1 rejected", snap)
	}
	release()
	if resp := c.roundTrip(t, Request{SQL: servingQuery}); resp.Type != "result" {
		t.Fatalf("session dead after rejection: %+v", resp)
	}
}

// TestServerStats: the STATS verb reports occupancy, per-tenant
// counters and latency percentiles consistent with the queries run.
func TestServerStats(t *testing.T) {
	_, addr := startServer(t, servingConfig(t))
	c0, c1 := dialServer(t, addr), dialServer(t, addr)
	one := 1
	for i := 0; i < 3; i++ {
		if resp := c0.roundTrip(t, Request{SQL: servingQuery}); resp.Type != "result" {
			t.Fatalf("tenant 0 query %d: %+v", i, resp)
		}
	}
	if resp := c1.roundTrip(t, Request{Tenant: &one, SQL: servingQuery}); resp.Type != "result" {
		t.Fatalf("tenant 1 query: %+v", resp)
	}
	resp := c0.roundTrip(t, Request{SQL: "STATS"})
	if resp.Type != "stats" || resp.Stats == nil {
		t.Fatalf("unexpected frame: %+v", resp)
	}
	st := resp.Stats
	if st.Inflight != 0 || st.Queued != 0 {
		t.Fatalf("idle server reports occupancy %d/%d", st.Inflight, st.Queued)
	}
	t0, t1 := st.Tenants[0], st.Tenants[1]
	if t0.Admission.Completed != 3 || t1.Admission.Completed != 1 {
		t.Fatalf("completed = %d/%d, want 3/1", t0.Admission.Completed, t1.Admission.Completed)
	}
	if st.Total.Completed != 4 || st.Total.Admitted != 4 {
		t.Fatalf("total %+v, want 4 completed / 4 admitted", st.Total)
	}
	if t0.Latency.Count != 3 || t0.Latency.P50 <= 0 || t0.Latency.P99 < t0.Latency.P50 {
		t.Fatalf("tenant 0 latency snapshot inconsistent: %+v", t0.Latency)
	}
}

// TestServerShutdownDrains: Shutdown waits for in-flight sessions, then
// the whole serving stack — accept loop, handlers, prefetchers —
// is gone (goroutine compare).
func TestServerShutdownDrains(t *testing.T) {
	baseline := runtime.NumGoroutine()
	cfg := servingConfig(t)
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	addr, err := s.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	conn, err := net.Dial("tcp", addr.String())
	if err != nil {
		t.Fatal(err)
	}
	c := &wireClient{conn: conn, enc: json.NewEncoder(conn), dec: json.NewDecoder(bufio.NewReader(conn))}
	if resp := c.roundTrip(t, Request{SQL: servingQuery}); resp.Type != "result" {
		t.Fatalf("query failed: %+v", resp)
	}
	conn.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown was not clean: %v", err)
	}
	requireSettle(t, baseline)
	// A second Start is refused; a second Shutdown is harmless.
	if _, err := s.Start("127.0.0.1:0"); err == nil {
		t.Fatal("restart after shutdown accepted")
	}
	if err := s.Shutdown(context.Background()); err != nil {
		t.Fatalf("repeated shutdown: %v", err)
	}
}

// TestShutdownStopsParkedKernels: served queries leave their kernels'
// process goroutines parked for the next query, and Shutdown stops them.
// Two sessions interleave their queries so the fleet keeps two kernels.
// The server stays reachable, so no cleanup of an unreachable fleet can
// stand in for Shutdown.
func TestShutdownStopsParkedKernels(t *testing.T) {
	baseline := quietGoroutines()
	s, err := New(servingConfig(t))
	if err != nil {
		t.Fatal(err)
	}
	sessions := []*Session{s.NewSession(), s.NewSession()}
	var wg sync.WaitGroup
	for tenant, sess := range sessions {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for range 10 {
				if resp := sess.Do(&Request{Op: OpQuery, Tenant: &tenant, SQL: servingQuery}); resp.Type != "result" {
					t.Errorf("tenant %d: %s: %s", tenant, resp.Code, resp.Error)
					return
				}
			}
		}()
	}
	wg.Wait()
	if n := runtime.NumGoroutine(); n < baseline+3 {
		t.Fatalf("%d goroutines after 20 served queries, %d before: no kernel parked its processes", n, baseline)
	}
	if err := s.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
	requireSettle(t, baseline)
	runtime.KeepAlive(s)
}

// quietGoroutines returns the goroutine count once it has held for 50 ms,
// so that goroutines of earlier tests still on their way out are not
// counted.
func quietGoroutines() int {
	for n := runtime.NumGoroutine(); ; {
		time.Sleep(50 * time.Millisecond)
		m := runtime.NumGoroutine()
		if m == n {
			return n
		}
		n = m
	}
}

// requireSettle waits for the goroutine count to return to the
// baseline (small slack for runtime helpers).
func requireSettle(t *testing.T, baseline int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		runtime.GC()
		n := runtime.NumGoroutine()
		if n <= baseline+2 {
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			buf = buf[:runtime.Stack(buf, true)]
			t.Fatalf("goroutines did not settle: %d > baseline %d\n%s", n, baseline, buf)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestRenderRowsMatchesRowString: a response's rows, rendered into one
// buffer, read as Row.String renders each — over rows that outgrow the
// buffer's first guess, strings holding ", " and parentheses, and no rows.
func TestRenderRowsMatchesRowString(t *testing.T) {
	rows := []tuple.Row{
		{tuple.Str(strings.Repeat("(a, b)", 40)), tuple.Float(-0.5)},
		{},
		{tuple.Int(-1), tuple.DateFromDays(-3), tuple.Bool(true)},
	}
	got := renderRows(rows)
	for i, r := range rows {
		if got[i] != r.String() {
			t.Errorf("row %d renders %q, Row.String %q", i, got[i], r.String())
		}
	}
	if got := renderRows(nil); len(got) != 0 {
		t.Errorf("no rows render %q", got)
	}
}
