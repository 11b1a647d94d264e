// Concurrent-clients soak: N goroutine clients across M tenants hammer
// one server over real sockets. Every result must be byte-identical to
// a single-shot run of the same statement, the per-tenant admit counts
// must match the offered load exactly (fair admission loses nothing
// under saturation) and shutdown must drain every goroutine. Runs
// under CI's -race job — the whole serving stack (sessions, admission,
// shared store, per-tenant caches, prefetchers) is exercised
// concurrently.
package server

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"net"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"
)

// soakQueries are deterministic (ORDER BY or global-aggregate)
// statements so byte comparison needs no canonicalization.
var soakQueries = []string{
	"SELECT n_name, r_name FROM nation, region WHERE n_regionkey = r_regionkey ORDER BY n_name LIMIT 8",
	"SELECT o_orderkey, o_totalprice FROM orders WHERE o_totalprice > 1000.0 ORDER BY o_orderkey",
	"SELECT l_shipmode, COUNT(*) AS n, SUM(l_quantity) AS q FROM lineitem, orders WHERE l_orderkey = o_orderkey GROUP BY l_shipmode ORDER BY l_shipmode",
	"SELECT COUNT(*) AS n, MIN(l_quantity) AS lo, MAX(l_quantity) AS hi FROM lineitem",
}

func TestServerSoakConcurrentClients(t *testing.T) {
	const (
		tenants        = 3
		connsPerTenant = 2
		// Enough rounds that the soak outlasts a scheduling hiccup: a
		// statement is served in ~100 µs, and a tenant whose sessions ran
		// only after the others finished could alternate without queueing.
		passes = 8
	)
	baseline := runtime.NumGoroutine()

	cfg := servingConfig(t)
	// Tight slots against 6 closed-loop clients: queries genuinely queue
	// and tenants genuinely compete, with queue room for every client.
	cfg.Admission = AdmissionConfig{Slots: 2, TenantSlots: 1, QueueDepth: 16}
	// Trace every query: the soak doubles as the race/overhead gate for
	// the span layer — results must still match the untraced oracle.
	cfg.Tracing = true
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	addr, err := s.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}

	// Single-shot oracle per statement, computed before any load.
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

	// Fairness under saturation: closed-loop clients offered identical
	// load, so fair admission must complete every tenant's share exactly
	// — no rejections, no expirations, no tenant starved.
	perTenant := connsPerTenant * passes * len(soakQueries)
	for tn := 0; tn < tenants; tn++ {
		snap := s.tenantState(tn).counters.Snapshot()
		if snap.Admitted != int64(perTenant) || snap.Completed != int64(perTenant) {
			t.Errorf("tenant %d: admitted %d completed %d, want %d each", tn, snap.Admitted, snap.Completed, perTenant)
		}
		if snap.Rejected != 0 || snap.Expired != 0 || snap.Failed != 0 {
			t.Errorf("tenant %d lost queries: %+v", tn, snap)
		}
		if snap.Queued == 0 {
			t.Errorf("tenant %d never queued: the soak did not saturate admission", tn)
		}
		if lat := s.tenantState(tn).latency.Snapshot(); lat.Count != int64(perTenant) {
			t.Errorf("tenant %d recorded %d latencies, want %d", tn, lat.Count, perTenant)
		}
	}

	// Every query was traced; the ring holds the most recent up to its
	// bound and each archived trace closed its root span.
	s.traceMu.Lock()
	retained := len(s.traces)
	for id, e := range s.traces {
		for _, sp := range e.Spans {
			if sp.Cat == "query" && sp.WallEnd == 0 {
				t.Errorf("trace %s: query root never closed", id)
			}
		}
	}
	s.traceMu.Unlock()
	if want := tenants * connsPerTenant * passes * len(soakQueries); retained != min(want, s.cfg.TraceRing) {
		t.Errorf("ring retained %d traces, want %d", retained, min(want, s.cfg.TraceRing))
	}

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown was not clean: %v", err)
	}
	requireSettle(t, baseline)
}

// soakClients runs connsPerTenant closed-loop sessions for each tenant
// and returns what went wrong. No session sends a statement before every
// session has bound its tenant, so a tenant's sessions contend for its
// slot however fast a statement is served.
func soakClients(addr string, tenants, connsPerTenant, passes int, oracle map[string]string) []error {
	var wg, bound sync.WaitGroup
	bound.Add(tenants * connsPerTenant)
	errs := make(chan error, tenants*connsPerTenant)
	for tn := 0; tn < tenants; tn++ {
		for cn := 0; cn < connsPerTenant; cn++ {
			wg.Add(1)
			go func(tn, cn int) {
				defer wg.Done()
				errs <- soakClient(addr, tn, cn, passes, oracle, &bound)
			}(tn, cn)
		}
	}
	wg.Wait()
	close(errs)
	var out []error
	for err := range errs {
		if err != nil {
			out = append(out, err)
		}
	}
	return out
}

// soakClient is one closed-loop session: bind the tenant, wait for the
// other sessions to be bound, run the statement mix for `passes` rounds,
// verify every frame against the oracle. Plain error returns — it runs on
// a goroutine where t.Fatalf is off-limits.
func soakClient(addr string, tn, cn, passes int, oracle map[string]string, bound *sync.WaitGroup) error {
	conn, err := soakBind(addr, tn, cn)
	bound.Done()
	if err != nil {
		return err
	}
	defer conn.conn.Close()
	bound.Wait()
	for pass := 0; pass < passes; pass++ {
		// Offset the statement order per client so different statements
		// contend at the same instant.
		for i := range soakQueries {
			q := soakQueries[(i+cn+pass)%len(soakQueries)]
			id := fmt.Sprintf("t%d/c%d/p%d/q%d", tn, cn, pass, i)
			resp, err := conn.roundTripErr(Request{ID: id, SQL: q})
			if err != nil {
				return fmt.Errorf("client %s: %w", id, err)
			}
			if resp.Type != "result" {
				return fmt.Errorf("client %s: frame %+v", id, resp)
			}
			if resp.ID != id || resp.Tenant != tn {
				return fmt.Errorf("client %s: misrouted frame id=%q tenant=%d", id, resp.ID, resp.Tenant)
			}
			if got := strings.Join(resp.Rows, "\n"); got != oracle[q] {
				return fmt.Errorf("client %s: rows diverge from single-shot run\ngot:  %s\nwant: %s", id, got, oracle[q])
			}
		}
	}
	return nil
}

// soakBind dials the server and binds the session to its tenant.
func soakBind(addr string, tn, cn int) (*wireClient, error) {
	conn, err := dialRaw(addr)
	if err != nil {
		return nil, fmt.Errorf("client t%d/c%d: %w", tn, cn, err)
	}
	resp, err := conn.roundTripErr(Request{Op: OpHello, Tenant: &tn})
	if err == nil && (resp.Type != "hello" || resp.Tenant != tn) {
		err = fmt.Errorf("answered %+v", resp)
	}
	if err != nil {
		conn.conn.Close()
		return nil, fmt.Errorf("client t%d/c%d hello: %w", tn, cn, err)
	}
	return conn, nil
}

// dialRaw is the non-fataling counterpart of dialServer for soak
// goroutines.
func dialRaw(addr string) (*wireClient, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	return &wireClient{conn: conn, enc: json.NewEncoder(conn), dec: json.NewDecoder(bufio.NewReader(conn))}, nil
}

// roundTripErr sends one frame and reads one response, with errors
// returned instead of failing a testing.T.
func (c *wireClient) roundTripErr(req Request) (*Response, error) {
	if err := c.enc.Encode(&req); err != nil {
		return nil, fmt.Errorf("send: %w", err)
	}
	if err := c.conn.SetReadDeadline(time.Now().Add(60 * time.Second)); err != nil {
		return nil, err
	}
	var resp Response
	if err := c.dec.Decode(&resp); err != nil {
		return nil, fmt.Errorf("recv: %w", err)
	}
	return &resp, nil
}
