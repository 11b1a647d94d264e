// The statement path has one implementation and two transports, and the
// two front ends one loop and one renderer: these tests pin that an
// in-process session and a socket give the same frames, what Render prints
// for every frame type, and the shell behaviours the shared loop fixed.
package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"reflect"
	"regexp"
	"strings"
	"testing"
	"time"

	"repro/internal/metrics"
	"repro/internal/trace"
)

// hostTimed are the frame fields that carry host time — wall and queue
// durations, decode time, latency percentiles — and so differ between any
// two runs; everything else of a frame is a virtual-clock or counted
// quantity and must not.
var hostTimed = map[string]bool{
	"wall_us": true, "queue_us": true, "decode_busy_us": true, "decode_stall_us": true,
	"wall_start_ns": true, "wall_end_ns": true, "queue_wait_ns": true,
	"sum_ns": true, "min_ns": true, "max_ns": true, "p50_ns": true, "p95_ns": true, "p99_ns": true, "p999_ns": true,
}

var durationText = regexp.MustCompile(`[0-9.]+(ns|µs|ms|s)\b`)

// omittedWhenZero are the host-timed frame fields marked omitempty: one
// under a microsecond leaves the frame, so whether they are there at all is
// host time.
var omittedWhenZero = []string{"wall_us", "queue_us", "decode_busy_us"}

// masked renders a frame as generic JSON with every host-timed field
// zeroed — those the frame omits when zero put back as zero — and every
// duration printed into a plan replaced.
func masked(t *testing.T, resp *Response) any {
	t.Helper()
	raw, err := json.Marshal(resp)
	if err != nil {
		t.Fatal(err)
	}
	var v any
	if err := json.Unmarshal(raw, &v); err != nil {
		t.Fatal(err)
	}
	var walk func(v any)
	walk = func(v any) {
		switch v := v.(type) {
		case map[string]any:
			for k, e := range v {
				switch {
				case hostTimed[k]:
					v[k] = 0.0
				case k == "plan":
					v[k] = durationText.ReplaceAllString(e.(string), "T")
				default:
					walk(e)
				}
			}
		case []any:
			for _, e := range v {
				walk(e)
			}
		}
	}
	walk(v)
	for _, k := range omittedWhenZero {
		v.(map[string]any)[k] = 0.0
	}
	return v
}

// TestSessionDoMatchesWire: the same requests through Session.RoundTrip
// of a server that was never started and through a TCP connection of an
// identical one give identical frames, host time aside — a query, a
// traced query and its TRACE, EXPLAIN, EXPLAIN ANALYZE, STATS, a plan
// error, a malformed request and an out-of-range tenant.
func TestSessionDoMatchesWire(t *testing.T) {
	cfg := NewConfig(servingDataset(t))
	cfg.SegCacheObjects = 8
	inProc, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer inProc.Shutdown(context.Background())
	sess := inProc.NewSession()
	_, addr := startServer(t, cfg)
	wire := dialServer(t, addr)

	far := 99
	requests := []Request{
		{ID: "q", SQL: servingQuery},
		{ID: "warm", SQL: servingQuery}, // the tenant's cache now holds it
		{ID: "traced", SQL: "SELECT COUNT(*) AS n FROM lineitem, orders WHERE l_orderkey = o_orderkey", Trace: true},
		{ID: "tree", SQL: "TRACE t0-1"},
		{ID: "explain", SQL: "EXPLAIN " + servingQuery},
		{ID: "analyze", SQL: "EXPLAIN ANALYZE " + servingQuery},
		{ID: "stats", SQL: "STATS"},
		{ID: "plan error", SQL: "SELECT nope FROM nowhere"},
		{ID: "malformed", Op: "dance"},
		{ID: "tenant", Tenant: &far, SQL: servingQuery},
	}
	for _, req := range requests {
		local := req
		got, err := sess.RoundTrip(&local)
		if err != nil {
			t.Fatalf("%s: in-process round trip: %v", req.ID, err)
		}
		want := wire.roundTrip(t, req)
		// The wire's protocol-error frame cannot echo an id it never parsed.
		if want.Code == CodeProtocol {
			got.ID = ""
		}
		if g, w := masked(t, got), masked(t, want); !reflect.DeepEqual(g, w) {
			t.Errorf("%s: frames differ\nsession: %v\nwire:    %v", req.ID, g, w)
		}
		if got.Type != want.Type {
			t.Errorf("%s: frame type %q in process, %q over the wire", req.ID, got.Type, want.Type)
		}
	}
	// Not vacuous: the traced query's tree came back with a device lane.
	tree, _ := sess.RoundTrip(&Request{SQL: "TRACE t0-1"})
	if tree.Type != "trace" || len(tree.Trace.Spans) == 0 || len(tree.Trace.Device) == 0 {
		t.Fatalf("traced query has no tree or no device lane: %+v", tree)
	}
}

// TestRenderGolden pins what both shells print for every frame type:
// every footer line of a result, the 40-row truncation, and error frames
// returned for the caller's stderr instead of written.
func TestRenderGolden(t *testing.T) {
	rows := func(n int) []string {
		out := make([]string, n)
		for i := range out {
			out[i] = fmt.Sprintf("[%d]", i)
		}
		return out
	}
	us := func(d time.Duration) int64 { return d.Microseconds() }
	for _, tc := range []struct {
		name      string
		resp      Response
		out, fail string
	}{
		{name: "result, plain", resp: Response{
			Type: "result", Rows: rows(2), RowCount: 2,
			VirtualUS: us(47600 * time.Millisecond), ProcessingUS: us(7600 * time.Millisecond), StalledUS: us(40 * time.Second),
			QueueUS: 12, Gets: 4, CacheHits: 1, Pruned: 3, Switches: 2,
		}, out: `[0]
[1]
(2 rows)
-- 47.6s virtual (processing 7.6s, stalled 40.0s), 12µs queued, 0s wall, 4 GETs (1 from cache, 3 pruned), 2 switches
`},
		{name: "result, every footer", resp: Response{
			Type: "result", RowCount: 0, VirtualUS: us(time.Minute), WallUS: 1500, Gets: 9,
			DeviceGets:      []int{5, 3},
			TransientFaults: 2, CorruptDeliveries: 1, Crashes: 1, Retries: 4, BackoffUS: us(1500 * time.Millisecond), Failovers: 1,
			SegCacheEntries: 3, SegCacheBytes: 3e9, SegCacheBudget: 8e9, SegCacheDecoded: 4800, SegCacheHits: 1, SegCacheMisses: 3,
			BytesFetched: 1000, BytesDecoded: 250, BytesSkipped: 750, BytesMaterialized: 90,
			PrefetchIssued: 3, PrefetchServed: 1, PrefetchUseful: 2, DecodeBusyUS: 40,
		}, out: `(0 rows)
-- 60.0s virtual (processing 0.0s, stalled 0.0s), 0s queued, 1.5ms wall, 9 GETs (0 from cache, 0 pruned), 0 switches
-- fleet: 2 devices, GETs d0:5 d1:3
-- faults: 2 transient, 1 corrupt, 1 crashes; recovered with 4 retries (1.5s backoff), 1 failovers
-- segcache: 3 objects resident (3 GB of 8 GB budget, 4800 bytes kept decoded), 25% lifetime hit ratio
-- decode: 1000 bytes fetched, 250 decoded, 750 skipped by projection (75%), 90 materialized; 40µs busy
-- prefetch: 3 issued, 1 served staged, 2 useful
`},
		{name: "result, truncated", resp: Response{Type: "result", Rows: rows(41), RowCount: 41},
			out: strings.Join(rows(40), "\n") + "\n... (41 rows total)\n" +
				"-- 0.0s virtual (processing 0.0s, stalled 0.0s), 0s queued, 0s wall, 0 GETs (0 from cache, 0 pruned), 0 switches\n"},
		{name: "explain", resp: Response{Type: "explain", Plan: "SeqScan nation\n-- data skipping: 0 of 2 segment fetches pruned\n"},
			out: "SeqScan nation\n-- data skipping: 0 of 2 segment fetches pruned\n"},
		{name: "stats", resp: Response{Type: "stats", Stats: &StatsSnapshot{
			Inflight: 1, Tenants: map[int]TenantSnapshot{}, Total: metrics.AdmissionSnapshot{Admitted: 2, Completed: 1},
		}}, out: `{
  "inflight": 1,
  "queued": 0,
  "tenants": {},
  "total": {
    "admitted": 2,
    "rejected": 0,
    "queued": 0,
    "expired": 0,
    "completed": 1,
    "failed": 0,
    "queue_wait_ns": 0
  }
}
`},
		{name: "trace", resp: Response{Type: "trace", Trace: &trace.Export{
			ID: "t1-7", Tenant: 1,
			Spans: []trace.Span{
				{ID: 1, Cat: trace.CatQuery, Name: "t1.q#0", WallEnd: 90 * time.Microsecond, HasVirt: true, VirtEnd: 20 * time.Second},
				{ID: 2, Parent: 1, Cat: trace.CatFetch, Name: "t1/nation/0000", WallStart: 5 * time.Microsecond, WallEnd: 30 * time.Microsecond},
			},
			Device: []trace.Span{
				{ID: 1, Cat: trace.CatTransfer, Name: "t1/nation/0000 t1 t1.q#0", WallStart: 6 * time.Microsecond, WallEnd: 20 * time.Microsecond, HasVirt: true, VirtEnd: 10 * time.Second, Device: 1},
			},
		}}, out: `trace t1-7 (tenant 1, 3 spans)
  query         1 spans          90µs wall         20s virtual
  fetch         1 spans          25µs wall
  transfer      1 spans          14µs wall         10s virtual
query t1.q#0  wall 0s..90µs  virt 0s..20s
  fetch t1/nation/0000  wall 5µs..30µs
device lane (1 spans)
transfer t1/nation/0000 t1 t1.q#0  wall 6µs..20µs  virt 0s..10s  d1
`},
		{name: "hello", resp: Response{Type: "hello", Tenant: 3}, out: "-- bound to tenant 3\n"},
		{name: "error", resp: Response{Type: "error", Code: CodePlan, Error: "sql: unknown table nowhere"},
			fail: "plan error: sql: unknown table nowhere"},
		{name: "empty trace", resp: Response{Type: "trace"}, fail: "empty trace frame"},
		{name: "unknown", resp: Response{Type: "gossip"}, fail: `unexpected frame type "gossip"`},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var out bytes.Buffer
			err := Render(&out, &tc.resp)
			if out.String() != tc.out {
				t.Errorf("rendered\n%s\nwant\n%s", out.String(), tc.out)
			}
			if (err == nil) != (tc.fail == "") || err != nil && err.Error() != tc.fail {
				t.Errorf("error %v, want %q", err, tc.fail)
			}
		})
	}
}

// scripted is a round trip that records what it was asked and answers
// from a script keyed by statement.
type scripted struct {
	asked  []Request
	answer map[string]*Response
}

func (s *scripted) roundTrip(req *Request) (*Response, error) {
	s.asked = append(s.asked, *req)
	if req.SQL == "drop the line" {
		return nil, fmt.Errorf("recv: EOF")
	}
	if resp := s.answer[req.SQL]; resp != nil {
		return resp, nil
	}
	return &Response{Type: "hello"}, nil
}

func (s *scripted) statements() []string {
	var out []string
	for _, req := range s.asked {
		out = append(out, req.SQL)
	}
	return out
}

// TestShellStatements: input is cut into statements by the SQL lexer's
// rules — a ';' inside a string literal or a comment is data, a statement
// may span lines, the unterminated tail runs at end of input — whether it
// comes from -c or from stdin.
func TestShellStatements(t *testing.T) {
	for _, tc := range []struct {
		name, input string
		want        []string
	}{
		{"two on one line", "SELECT 1; SELECT 2", []string{"SELECT 1", "SELECT 2"}},
		{"a literal with a semicolon", "SELECT 'a;b' FROM t; STATS;", []string{"SELECT 'a;b' FROM t", "STATS"}},
		{"an escaped quote", "SELECT 'it''s;' FROM t;STATS", []string{"SELECT 'it''s;' FROM t", "STATS"}},
		{"a comment with a semicolon", "SELECT 1 -- not; yet\n FROM t;", []string{"SELECT 1 -- not; yet\n FROM t"}},
		{"across lines", "SELECT n_name\n  FROM nation\n  LIMIT 3;\nSTATS;\n", []string{"SELECT n_name\n  FROM nation\n  LIMIT 3", "STATS"}},
		{"blank and comment-only text is no statement", ";;\n-- done\n", nil},
		{"quit between statements", "SELECT 1;\n\\q\nSELECT 2;", []string{"SELECT 1"}},
		{"quit inside a statement is text", "SELECT\nexit\nFROM t;", []string{"SELECT\nexit\nFROM t"}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var s scripted
			var out, errOut bytes.Buffer
			sh := &Shell{RoundTrip: s.roundTrip, Out: &out, Err: &errOut, Name: "test"}
			if !sh.Run(strings.NewReader(tc.input)) {
				t.Errorf("run failed: %s", errOut.String())
			}
			if got := s.statements(); !reflect.DeepEqual(got, tc.want) {
				t.Errorf("ran %q, want %q", got, tc.want)
			}
		})
	}
}

// TestShellFailures: an error frame and a broken transport are reported
// on Err, never on Out; the statements after them still run; and the run
// as a whole reports failure — what the CLIs turn into a non-zero exit.
func TestShellFailures(t *testing.T) {
	s := scripted{answer: map[string]*Response{
		"bad": {Type: "error", Code: CodePlan, Error: "no such table"},
	}}
	var out, errOut bytes.Buffer
	sh := &Shell{RoundTrip: s.roundTrip, Out: &out, Err: &errOut, Name: "test"}
	if sh.Run(strings.NewReader("ok; bad; drop the line; ok")) {
		t.Error("a run with two failed statements reported success")
	}
	if got, want := out.String(), "-- bound to tenant 0\n-- bound to tenant 0\n"; got != want {
		t.Errorf("stdout %q, want %q", got, want)
	}
	if got, want := errOut.String(), "test: plan error: no such table\ntest: recv: EOF\n"; got != want {
		t.Errorf("stderr %q, want %q", got, want)
	}
}

// TestShellInteractive: the prompt tells a fresh statement from one in
// progress, backslash commands between statements reach Meta, and
// ShowTrace follows a traced response with its tree.
func TestShellInteractive(t *testing.T) {
	s := scripted{answer: map[string]*Response{
		"SELECT\n1": {Type: "result", TraceID: "t0-4"},
	}}
	var out bytes.Buffer
	var meta []string
	sh := &Shell{
		RoundTrip: s.roundTrip, Out: &out, Err: &out, Name: "test",
		Interactive: true, ShowTrace: true,
		Meta: func(cmd string) { meta = append(meta, cmd) },
	}
	if !sh.Run(strings.NewReader("\\d nation\nSELECT\n1;\n")) {
		t.Errorf("run failed: %s", out.String())
	}
	if !reflect.DeepEqual(meta, []string{`\d nation`}) {
		t.Errorf("meta commands %q", meta)
	}
	if len(s.asked) != 2 || s.asked[1].Op != OpTrace || s.asked[1].TraceID != "t0-4" {
		t.Errorf("asked %+v, want the statement then TRACE t0-4", s.asked)
	}
	if prompts := strings.Count(out.String(), "> "); prompts != 3 || strings.Count(out.String(), "… ") != 1 {
		t.Errorf("prompts in %q, want three fresh and one continuation", out.String())
	}
}

// TestShellOverSession is skipperql's -c path end to end: two statements
// on one line both run (the second used to be a parse error), over a
// server that was never started.
func TestShellOverSession(t *testing.T) {
	s, err := New(servingConfig(t))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Shutdown(context.Background())
	var out, errOut bytes.Buffer
	sh := &Shell{RoundTrip: s.NewSession().RoundTrip, Out: &out, Err: &errOut, Name: "test"}
	if !sh.Run(strings.NewReader(servingQuery + "; EXPLAIN " + servingQuery)) {
		t.Fatalf("run failed: %s", errOut.String())
	}
	for _, want := range []string{"(8 rows)\n-- ", " virtual (processing ", "-- data skipping: ", "-- segcache: ", "-- projection: decode ", "-- prefetch: up to 2 GB ahead ("} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("output lacks %q:\n%s", want, out.String())
		}
	}
	if sh.Run(strings.NewReader("SELECT nope FROM nowhere")) || !strings.Contains(errOut.String(), "plan error") {
		t.Errorf("a plan error did not fail the run on stderr: %q", errOut.String())
	}
}
