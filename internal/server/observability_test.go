// Observability surface tests: per-request span capture and the TRACE
// verb, the trace ring bound, EXPLAIN ANALYZE over the wire, the
// Prometheus exposition and pprof sidecar, and the slow-query log.
package server

import (
	"bytes"
	"io"
	"net/http/httptest"
	"regexp"
	"strings"
	"testing"
	"time"

	"repro/internal/trace"
)

const obsQuery = "SELECT n_name, r_name FROM nation, region WHERE n_regionkey = r_regionkey ORDER BY n_name LIMIT 5"

func TestTracedQueryAndTraceVerb(t *testing.T) {
	_, addr := startServer(t, servingConfig(t))
	c := dialServer(t, addr)

	// Untraced queries carry no trace id and archive nothing.
	resp := c.roundTrip(t, Request{SQL: obsQuery})
	if resp.Type != "result" || resp.TraceID != "" {
		t.Fatalf("untraced query answered type=%s trace_id=%q", resp.Type, resp.TraceID)
	}

	// A query opting in gets a trace id, retrievable over the wire.
	resp = c.roundTrip(t, Request{SQL: obsQuery, Trace: true})
	if resp.Type != "result" || resp.TraceID == "" {
		t.Fatalf("traced query answered type=%s trace_id=%q", resp.Type, resp.TraceID)
	}
	tr := c.roundTrip(t, Request{SQL: "TRACE " + resp.TraceID})
	if tr.Type != "trace" || tr.Trace == nil {
		t.Fatalf("TRACE answered %+v", tr)
	}
	if tr.Trace.ID != resp.TraceID || tr.Trace.SQL != obsQuery {
		t.Fatalf("trace identity mismatch: %q %q", tr.Trace.ID, tr.Trace.SQL)
	}
	// The span tree must cover the request's whole life: plan, admission
	// wait, the engine run (query root + execute phase, fetch/decode
	// below them), and the response drain.
	cats := map[string]int{}
	for _, sp := range tr.Trace.Spans {
		cats[sp.Cat]++
	}
	for _, want := range []string{trace.CatPlan, trace.CatAdmission, trace.CatQuery,
		trace.CatExecute, trace.CatDrain} {
		if cats[want] == 0 {
			t.Errorf("trace has no %s span (got %v)", want, cats)
		}
	}
	if cats[trace.CatFetch]+cats[trace.CatDecode]+cats[trace.CatCycle] == 0 {
		t.Errorf("trace has no storage-level spans (got %v)", cats)
	}

	// Unknown ids answer a typed not_found, not a protocol error.
	miss := c.roundTrip(t, Request{Op: OpTrace, TraceID: "t9-999"})
	if miss.Type != "error" || miss.Code != CodeNotFound {
		t.Fatalf("missing trace answered %+v", miss)
	}
}

func TestTraceRingEviction(t *testing.T) {
	cfg := servingConfig(t)
	cfg.Tracing = true // trace unconditionally
	cfg.TraceRing = 2
	_, addr := startServer(t, cfg)
	c := dialServer(t, addr)

	var ids []string
	for i := 0; i < 3; i++ {
		resp := c.roundTrip(t, Request{SQL: obsQuery})
		if resp.Type != "result" || resp.TraceID == "" {
			t.Fatalf("query %d answered type=%s trace_id=%q (Tracing=true should trace every query)",
				i, resp.Type, resp.TraceID)
		}
		ids = append(ids, resp.TraceID)
	}
	if got := c.roundTrip(t, Request{Op: OpTrace, TraceID: ids[0]}); got.Code != CodeNotFound {
		t.Errorf("oldest trace should be evicted, got %+v", got)
	}
	for _, id := range ids[1:] {
		if got := c.roundTrip(t, Request{Op: OpTrace, TraceID: id}); got.Type != "trace" {
			t.Errorf("trace %s should be retained, got %+v", id, got)
		}
	}
}

func TestExplainAnalyzeOverWire(t *testing.T) {
	_, addr := startServer(t, servingConfig(t))
	c := dialServer(t, addr)
	resp := c.roundTrip(t, Request{SQL: "EXPLAIN ANALYZE " + obsQuery})
	if resp.Type != "explain" {
		t.Fatalf("EXPLAIN ANALYZE answered %+v", resp)
	}
	for _, want := range []string{"rows=", "batches=", "time=", "-- executed: 5 rows"} {
		if !strings.Contains(resp.Plan, want) {
			t.Errorf("analyzed plan missing %q:\n%s", want, resp.Plan)
		}
	}
	if resp.WallUS <= 0 {
		t.Errorf("analyzed plan reported no wall time")
	}
	// Plain EXPLAIN stays unexecuted: no measurements in the tree.
	plain := c.roundTrip(t, Request{SQL: "EXPLAIN " + obsQuery})
	if plain.Type != "explain" || strings.Contains(plain.Plan, "rows=") {
		t.Fatalf("plain EXPLAIN answered %+v", plain)
	}
}

func TestMetricsExpositionAndPprof(t *testing.T) {
	s, addr := startServer(t, servingConfig(t))
	c := dialServer(t, addr)
	tn := 1
	if resp := c.roundTrip(t, Request{Op: OpHello, Tenant: &tn}); resp.Type != "hello" {
		t.Fatalf("hello answered %+v", resp)
	}
	if resp := c.roundTrip(t, Request{SQL: obsQuery}); resp.Type != "result" {
		t.Fatalf("query answered %+v", resp)
	}
	// EXPLAIN reads the plan the query left in the statement cache.
	if resp := c.roundTrip(t, Request{SQL: "EXPLAIN " + obsQuery}); resp.Type != "explain" {
		t.Fatalf("EXPLAIN answered %+v", resp)
	}

	srv := httptest.NewServer(s.DebugHandler())
	defer srv.Close()
	get := func(path string) (string, string) {
		r, err := srv.Client().Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer r.Body.Close()
		if r.StatusCode != 200 {
			t.Fatalf("GET %s: status %d", path, r.StatusCode)
		}
		body, err := io.ReadAll(r.Body)
		if err != nil {
			t.Fatal(err)
		}
		return string(body), r.Header.Get("Content-Type")
	}

	body, ctype := get("/metrics")
	if !strings.HasPrefix(ctype, "text/plain; version=0.0.4") {
		t.Errorf("exposition content type %q", ctype)
	}
	// The required families, with the tenant-1 series live and non-zero.
	for _, re := range []string{
		`(?m)^# TYPE skipper_queries_total counter$`,
		`(?m)^skipper_queries_total\{outcome="completed",tenant="1"\} 1$`,
		`(?m)^skipper_queries_total\{outcome="admitted",tenant="1"\} 1$`,
		`(?m)^# TYPE skipper_query_latency_seconds summary$`,
		`(?m)^skipper_query_latency_seconds\{tenant="1",quantile="0\.999"\} [0-9.e+-]+$`,
		`(?m)^skipper_query_latency_seconds_count\{tenant="1"\} 1$`,
		`(?m)^# TYPE skipper_inflight_queries gauge$`,
		`(?m)^# TYPE skipper_admission_queued_queries gauge$`,
		`(?m)^# TYPE skipper_slow_queries_total counter$`,
		`(?m)^# TYPE skipper_queue_wait_seconds_total counter$`,
		`(?m)^# TYPE skipper_statement_cache_hits_total counter$`,
		`(?m)^skipper_statement_cache_hits_total 1$`,
		`(?m)^# TYPE skipper_statement_cache_misses_total counter$`,
		`(?m)^skipper_statement_cache_misses_total 1$`,
		`(?m)^# TYPE skipper_statement_cache_entries gauge$`,
		`(?m)^skipper_statement_cache_entries 1$`,
	} {
		if !regexp.MustCompile(re).MatchString(body) {
			t.Errorf("exposition missing %s\n%s", re, body)
		}
	}

	// The profile endpoints answer on the same mux.
	if body, _ := get("/debug/pprof/goroutine?debug=1"); !strings.Contains(body, "goroutine") {
		t.Errorf("pprof goroutine profile looks wrong:\n%.200s", body)
	}
}

func TestSlowQueryLog(t *testing.T) {
	var buf bytes.Buffer
	cfg := servingConfig(t)
	cfg.Tracing = true
	cfg.SlowQuery = time.Nanosecond // everything is slow
	cfg.SlowQueryLog = &buf
	s, addr := startServer(t, cfg)
	c := dialServer(t, addr)
	if resp := c.roundTrip(t, Request{SQL: obsQuery}); resp.Type != "result" {
		t.Fatalf("query answered %+v", resp)
	}
	line := buf.String()
	for _, want := range []string{"slow-query tenant=0", "wall=", "queue=", "outcome=ok", "trace=t0-", "sql="} {
		if !strings.Contains(line, want) {
			t.Errorf("slow-query line missing %q: %q", want, line)
		}
	}
	if got := s.slow.Value(); got != 1 {
		t.Errorf("slow counter = %d, want 1", got)
	}

	// Below the threshold nothing is logged.
	buf.Reset()
	cfg2 := servingConfig(t)
	cfg2.SlowQuery = time.Hour
	cfg2.SlowQueryLog = &buf
	s2, addr2 := startServer(t, cfg2)
	c2 := dialServer(t, addr2)
	if resp := c2.roundTrip(t, Request{SQL: obsQuery}); resp.Type != "result" {
		t.Fatalf("query answered %+v", resp)
	}
	if buf.Len() != 0 || s2.slow.Value() != 0 {
		t.Errorf("hour threshold logged %q (count %d)", buf.String(), s2.slow.Value())
	}
}

// TestTraceSink verifies the completion hook skipperd's -trace-dir
// rides on: one call per traced query, with the full span tree.
func TestTraceSink(t *testing.T) {
	sunk := make(chan *trace.Export, 4)
	cfg := servingConfig(t)
	cfg.Tracing = true
	cfg.TraceSink = func(e *trace.Export) { sunk <- e }
	_, addr := startServer(t, cfg)
	c := dialServer(t, addr)
	resp := c.roundTrip(t, Request{SQL: obsQuery})
	if resp.Type != "result" {
		t.Fatalf("query answered %+v", resp)
	}
	select {
	case e := <-sunk:
		if e.ID != resp.TraceID || len(e.Spans) == 0 {
			t.Fatalf("sink got id=%q with %d spans, want %q", e.ID, len(e.Spans), resp.TraceID)
		}
	default:
		t.Fatal("trace sink was not called")
	}
}

// TestExplainDistinctShowsTheWholePlan: plan walks used to stop at
// Distinct, so EXPLAIN printed nothing below it and EXPLAIN ANALYZE armed
// nothing below it. Both must reach the scans of a two-table join.
func TestExplainDistinctShowsTheWholePlan(t *testing.T) {
	s, err := New(servingConfig(t))
	if err != nil {
		t.Fatal(err)
	}
	sess := s.NewSession()
	const q = "SELECT DISTINCT n_regionkey FROM nation, region WHERE n_regionkey = r_regionkey ORDER BY n_regionkey"
	for _, verb := range []string{"EXPLAIN ", "EXPLAIN ANALYZE "} {
		resp, err := sess.RoundTrip(&Request{SQL: verb + q})
		if err != nil || resp.Type != "explain" {
			t.Fatalf("%sanswered %+v, %v", verb, resp, err)
		}
		lines := strings.Split(resp.Plan, "\n")
		below := -1
		for i, l := range lines {
			if strings.Contains(l, "-> Distinct") {
				below = i + 1
			}
		}
		if below < 0 {
			t.Fatalf("%sprinted no Distinct line:\n%s", verb, resp.Plan)
		}
		for _, table := range []string{"SeqScan nation", "SeqScan region"} {
			if !strings.Contains(strings.Join(lines[below:], "\n"), table) {
				t.Errorf("%sprinted no %q below Distinct:\n%s", verb, table, resp.Plan)
			}
		}
		if verb == "EXPLAIN " {
			continue
		}
		for _, l := range lines[below:] {
			if strings.Contains(l, "-> ") && (!strings.Contains(l, "rows=") || strings.Contains(l, "rows=0 ")) {
				t.Errorf("EXPLAIN ANALYZE measured nothing at %q:\n%s", strings.TrimSpace(l), resp.Plan)
			}
		}
	}
}
