// Package server is the SQL front end: the one statement path between a
// client and the execution core the earlier layers built. A Session (a
// tenant binding over the server's per-tenant segment caches) takes a
// Request and returns a Response; every query passes through an
// admission controller — bounded in-flight slots, per-tenant quotas with
// fair queueing, queue-depth backpressure and per-query deadlines —
// before it reaches a skipper.Cluster run. Two transports lead there: a
// TCP listener speaking newline-delimited JSON (skipperd) and
// Server.NewSession in the same process (skipperql); Shell and Render are
// the statement loop and renderer both front ends share. go-mysql-server's
// separation of wire protocol / session / execution is the reference
// shape; the protocol here is deliberately minimal so the serving
// mechanics, not SQL framing, carry the weight.
package server

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"strings"
	"time"

	"repro/internal/metrics"
	"repro/internal/segcache"
	"repro/internal/skipper"
	"repro/internal/sql"
	"repro/internal/trace"
)

// DefaultMaxLineBytes bounds one request frame. A line longer than the
// limit is a protocol error and closes the connection (there is no way
// to resynchronize mid-line without trusting the peer's framing).
const DefaultMaxLineBytes = 1 << 20

// ErrProtocol is the root of every malformed-frame error: unparseable
// JSON, unknown verbs, missing fields, oversized or interleaved frames.
// The server answers with a typed "protocol" error frame and — for
// framing-level violations — closes the connection.
var ErrProtocol = errors.New("protocol error")

// ErrLineTooLong marks a request frame exceeding the line limit. Wraps
// ErrProtocol.
var ErrLineTooLong = fmt.Errorf("%w: request line exceeds limit", ErrProtocol)

// Request verbs. A frame without an explicit "op" derives one from its
// SQL text: the STATS admin verb, an EXPLAIN prefix, or a plain query.
const (
	OpQuery   = "query"
	OpExplain = "explain"
	OpStats   = "stats"
	OpHello   = "hello"
	OpTrace   = "trace"
)

// Request is one client frame.
type Request struct {
	// ID is an opaque client token echoed on the matching response.
	ID string `json:"id,omitempty"`
	// Op selects the verb; empty derives it from SQL (STATS / EXPLAIN
	// prefix / query).
	Op string `json:"op,omitempty"`
	// Tenant binds the session on first use; later frames may repeat the
	// same tenant but not switch. Nil inherits the session's binding
	// (tenant 0 if never set).
	Tenant *int `json:"tenant,omitempty"`
	// SQL is the statement for query/explain verbs.
	SQL string `json:"sql,omitempty"`
	// DeadlineMS bounds this query's total time in the server — queue
	// wait plus execution — in milliseconds of real time. 0 uses the
	// server default; negative is a protocol error.
	DeadlineMS int64 `json:"deadline_ms,omitempty"`
	// Trace requests span capture for this query: the response carries a
	// trace_id whose full span tree the TRACE verb retrieves. The server
	// may also trace unconditionally (Config.Tracing).
	Trace bool `json:"trace,omitempty"`
	// TraceID names the trace to retrieve (op "trace"; the bare form
	// "TRACE <id>" in the SQL text sets it too).
	TraceID string `json:"trace_id,omitempty"`
	// Analyze upgrades an explain frame to EXPLAIN ANALYZE: execute the
	// plan and annotate each operator with measured rows/batches/bytes/
	// time. Set implicitly by an "EXPLAIN ANALYZE ..." SQL prefix.
	Analyze bool `json:"analyze,omitempty"`
}

// Response is one server frame. Type is "result", "explain", "stats",
// "hello" or "error"; the other fields are populated per type.
type Response struct {
	ID     string `json:"id,omitempty"`
	Type   string `json:"type"`
	Tenant int    `json:"tenant"`

	// Result frames: rows rendered exactly as the single-shot tools
	// print them (tuple.Row.String), so byte-identical comparison against
	// a skipperql run is a line diff.
	Rows     []string `json:"rows,omitempty"`
	RowCount int      `json:"row_count"`
	// VirtualUS is the simulated storage-hardware time of the run;
	// WallUS and QueueUS are real service and queue-wait time.
	VirtualUS int64 `json:"virtual_us,omitempty"`
	WallUS    int64 `json:"wall_us,omitempty"`
	QueueUS   int64 `json:"queue_us,omitempty"`
	Gets      int   `json:"gets,omitempty"`
	CacheHits int   `json:"cache_hits,omitempty"`
	Pruned    int   `json:"pruned,omitempty"`
	// Retries counts GET re-requests the proxy issued after retryable
	// faults (transient failures, crash windows, corrupt deliveries);
	// zero — and absent from the frame — on a clean device.
	Retries int `json:"retries,omitempty"`
	// The rest of the run's account (see account), which Render prints
	// as footer lines. ProcessingUS and StalledUS split VirtualUS into
	// compute charges and waits on the device; DeviceGets[d] is the GETs
	// device d of a fleet received (absent on one device); the SegCache
	// fields are the tenant's cache after the run (SegCacheDecoded the
	// bytes its entries keep decoded), hits and misses its lifetime's;
	// DecodeBusyUS is host time spent decoding.
	ProcessingUS      int64 `json:"processing_us,omitempty"`
	StalledUS         int64 `json:"stalled_us,omitempty"`
	Switches          int   `json:"switches,omitempty"`
	DeviceGets        []int `json:"device_gets,omitempty"`
	TransientFaults   int   `json:"transient_faults,omitempty"`
	CorruptDeliveries int   `json:"corrupt_deliveries,omitempty"`
	Crashes           int   `json:"crashes,omitempty"`
	BackoffUS         int64 `json:"backoff_us,omitempty"`
	Failovers         int   `json:"failovers,omitempty"`
	SegCacheEntries   int   `json:"segcache_entries,omitempty"`
	SegCacheBytes     int64 `json:"segcache_bytes,omitempty"`
	SegCacheBudget    int64 `json:"segcache_budget,omitempty"`
	SegCacheDecoded   int64 `json:"segcache_decoded,omitempty"`
	SegCacheHits      int64 `json:"segcache_hits,omitempty"`
	SegCacheMisses    int64 `json:"segcache_misses,omitempty"`
	BytesFetched      int64 `json:"bytes_fetched,omitempty"`
	BytesDecoded      int64 `json:"bytes_decoded,omitempty"`
	BytesSkipped      int64 `json:"bytes_skipped,omitempty"`
	BytesMaterialized int64 `json:"bytes_materialized,omitempty"`
	PrefetchIssued    int   `json:"prefetch_issued,omitempty"`
	PrefetchServed    int   `json:"prefetch_served,omitempty"`
	PrefetchUseful    int   `json:"prefetch_useful,omitempty"`
	DecodeBusyUS      int64 `json:"decode_busy_us,omitempty"`
	// TraceID names the span capture of this query (traced queries only;
	// retrieve with TRACE <id>). Error frames of traced queries carry it
	// too — a trace of a failed query is exactly what one wants to read.
	TraceID string `json:"trace_id,omitempty"`

	// Explain frames.
	Plan string `json:"plan,omitempty"`

	// Error frames: Code is the machine-readable class ("protocol",
	// "plan", "tenant", "overloaded", "deadline", "canceled", "exec").
	Code  string `json:"code,omitempty"`
	Error string `json:"error,omitempty"`

	// Stats frames.
	Stats *StatsSnapshot `json:"stats,omitempty"`

	// Trace frames: the retrieved span tree.
	Trace *trace.Export `json:"trace,omitempty"`
}

// Error frame codes.
const (
	CodeProtocol   = "protocol"
	CodePlan       = "plan"
	CodeTenant     = "tenant"
	CodeOverloaded = "overloaded"
	CodeDeadline   = "deadline"
	CodeCanceled   = "canceled"
	CodeExec       = "exec"
	CodeNotFound   = "not_found"
)

// StatsSnapshot is the STATS verb's payload: the admission controller's
// live occupancy plus per-tenant counters and latency percentiles.
type StatsSnapshot struct {
	Inflight int                       `json:"inflight"`
	Queued   int                       `json:"queued"`
	Tenants  map[int]TenantSnapshot    `json:"tenants"`
	Total    metrics.AdmissionSnapshot `json:"total"`
}

// TenantSnapshot is one tenant's serving statistics.
type TenantSnapshot struct {
	Admission metrics.AdmissionSnapshot `json:"admission"`
	Latency   metrics.LatencySnapshot   `json:"latency"`
}

// account fills a result frame with the run's numbers, from the same
// ClientStats and RunResult the /metrics bridge reads and the tenant's
// cache: flat scalars, so a clean single-device run adds no allocation.
func (r *Response) account(res *skipper.RunResult, cache *segcache.Cache) {
	cs := res.Clients[0]
	r.VirtualUS = durUS(cs.Elapsed())
	r.ProcessingUS = durUS(cs.Processing)
	r.StalledUS = durUS(cs.Stalled())
	r.Gets, r.CacheHits, r.Pruned = cs.GetsIssued, cs.CacheHits, cs.SegmentsSkipped
	r.Switches = res.CSD.GroupSwitches
	if len(res.Devices) > 1 {
		r.DeviceGets = make([]int, len(res.Devices))
		for d, st := range res.Devices {
			r.DeviceGets[d] = st.GetsReceived
		}
	}
	r.TransientFaults, r.CorruptDeliveries, r.Crashes = cs.TransientFaults, cs.CorruptDeliveries, res.CSD.Crashes
	r.Retries, r.BackoffUS, r.Failovers = cs.Retries, durUS(cs.RetryBackoff), cs.Failovers
	if cache != nil {
		st := cache.Stats()
		r.SegCacheEntries, r.SegCacheBytes, r.SegCacheBudget = st.Entries, st.BytesCached, st.Budget
		r.SegCacheDecoded = st.BytesDecoded
		r.SegCacheHits, r.SegCacheMisses = st.Hits, st.Misses
	}
	r.BytesFetched, r.BytesDecoded = cs.BytesFetched, cs.BytesDecoded
	r.BytesSkipped, r.BytesMaterialized = cs.BytesSkippedByProjection, cs.BytesMaterialized
	r.PrefetchIssued, r.PrefetchServed, r.PrefetchUseful = cs.PrefetchIssued, cs.PrefetchServed, cs.PrefetchUseful
	r.DecodeBusyUS = durUS(cs.Pipe.DecodeBusy)
}

// ParseRequest parses and normalizes one frame. Every failure wraps
// ErrProtocol; see Normalize for what success guarantees.
func ParseRequest(line []byte) (*Request, error) {
	var req Request
	dec := json.NewDecoder(bytes.NewReader(line))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrProtocol, err)
	}
	// A second JSON value on the same line is an interleaved frame: the
	// peer lost framing; reject rather than guess.
	if dec.More() {
		return nil, fmt.Errorf("%w: trailing data after frame", ErrProtocol)
	}
	if err := req.Normalize(); err != nil {
		return nil, err
	}
	return &req, nil
}

// Normalize checks a request and puts it in the form Session.Do takes:
// Op is one of the exported verbs (derived from the SQL text when empty),
// query/explain requests carry non-empty SQL (with any EXPLAIN prefix
// stripped), a trace request its TraceID, Tenant (if present) is
// non-negative and DeadlineMS non-negative. Every failure wraps
// ErrProtocol.
func (req *Request) Normalize() error {
	if req.Tenant != nil && *req.Tenant < 0 {
		return fmt.Errorf("%w: negative tenant %d", ErrProtocol, *req.Tenant)
	}
	if req.DeadlineMS < 0 {
		return fmt.Errorf("%w: negative deadline_ms %d", ErrProtocol, req.DeadlineMS)
	}
	if req.Op == "" {
		req.Op = deriveOp(req.SQL)
	}
	switch req.Op {
	case OpQuery, OpExplain:
		if req.Op == OpExplain {
			// Accept both {"op":"explain","sql":"SELECT..."} and a bare
			// EXPLAIN [ANALYZE] prefix; normalize to the statement alone.
			if rest, analyze, ok := sql.StripExplain(req.SQL); ok {
				req.SQL = rest
				req.Analyze = req.Analyze || analyze
			}
		}
		req.SQL = strings.TrimSpace(req.SQL)
		if req.SQL == "" {
			return fmt.Errorf("%w: %s frame without sql", ErrProtocol, req.Op)
		}
	case OpTrace:
		// Accept both {"op":"trace","trace_id":"..."} and the bare form
		// "TRACE <id>" in the SQL text.
		if req.TraceID == "" {
			if id, ok := stripTrace(req.SQL); ok {
				req.TraceID = id
			}
		}
		if req.TraceID == "" {
			return fmt.Errorf("%w: trace frame without trace_id", ErrProtocol)
		}
	case OpStats, OpHello:
		// No SQL required.
	default:
		return fmt.Errorf("%w: unknown op %q", ErrProtocol, req.Op)
	}
	return nil
}

// deriveOp classifies a frame without an explicit op by its SQL text.
func deriveOp(sqlText string) string {
	trimmed := strings.TrimSpace(sqlText)
	if strings.EqualFold(trimmed, "STATS") {
		return OpStats
	}
	if _, ok := stripTrace(trimmed); ok {
		return OpTrace
	}
	if _, _, ok := sql.StripExplain(trimmed); ok {
		return OpExplain
	}
	return OpQuery
}

// stripTrace recognizes the "TRACE <id>" admin verb and returns the
// trace id. A single bare token follows the keyword; anything more is
// not a trace frame (it falls through to the query path and fails
// planning with a clear error).
func stripTrace(stmtText string) (string, bool) {
	id, ok := sql.StripWord(stmtText, "TRACE")
	if !ok || id == "" || strings.ContainsAny(id, " \t\n\r") {
		return "", false
	}
	return id, true
}

// readFrame returns the next non-empty line, stripped of surrounding
// whitespace. A line longer than max returns ErrLineTooLong (the
// stream cannot be resynchronized). A trailing partial line at EOF — a
// mid-statement disconnect — is dropped, not processed: only frames the
// peer finished with a newline are ever acted on.
func readFrame(br *bufio.Reader, max int) ([]byte, error) {
	if max <= 0 {
		max = DefaultMaxLineBytes
	}
	for {
		var line []byte
		for {
			chunk, err := br.ReadSlice('\n')
			// Cap accumulation before appending: a peer streaming an
			// endless line must not grow memory with it. max counts the
			// frame body; +1 admits the terminating newline.
			if len(line)+len(chunk) > max+1 {
				return nil, ErrLineTooLong
			}
			line = append(line, chunk...)
			if err == nil {
				break
			}
			if err == bufio.ErrBufferFull {
				continue
			}
			if err == io.EOF {
				return nil, io.EOF // drop any unterminated tail
			}
			return nil, err
		}
		line = bytes.TrimSpace(line)
		if len(line) > 0 {
			return line, nil
		}
	}
}

// errorResponse builds a typed error frame.
func errorResponse(id string, tenant int, code string, err error) *Response {
	return &Response{ID: id, Type: "error", Tenant: tenant, Code: code, Error: err.Error()}
}

// durUS renders a duration in whole microseconds for the wire.
func durUS(d time.Duration) int64 { return d.Microseconds() }
