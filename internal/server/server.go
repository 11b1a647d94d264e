package server

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/engine"
	"repro/internal/metrics"
	"repro/internal/segcache"
	"repro/internal/segment"
	"repro/internal/skipper"
	"repro/internal/sql"
	"repro/internal/trace"
	"repro/internal/tuple"
	"repro/internal/workload"
)

// Config assembles a server: the dataset it serves, the execution
// settings every query runs with, and the admission policy.
type Config struct {
	// Dataset is the generated (and possibly re-encoded) database every
	// tenant queries. Required.
	Dataset *workload.Dataset
	// Options are every query's execution settings. NewConfig sets the
	// serving defaults: the skipper engine and a 10-object MJoin buffer.
	skipper.Options
	// SegCacheObjects is each tenant's persistent segment-cache budget
	// in nominal 1 GB objects (0 = no cache). The cache outlives
	// sessions: every connection of a tenant shares one instance, so a
	// dashboard reconnecting re-hits the bytes its last session pulled.
	SegCacheObjects int
	// Fleet is the device fleet every query runs against: its size,
	// replication and fault plan (the zero value is one clean default
	// device). New places it once; every query runs fresh devices with
	// fresh injectors — fault decisions are a pure function of (seed,
	// object, attempt), so every query sees the same deterministic
	// schedule on its own virtual clock regardless of serving concurrency,
	// and a crash window hits each affected query at the same point of its
	// own run while other queries and tenants keep serving.
	Fleet skipper.FleetSpec
	// MaxTenants bounds acceptable tenant ids to [0, MaxTenants).
	// Default 8.
	MaxTenants int
	// Admission sizes the admission controller.
	Admission AdmissionConfig
	// DefaultDeadline bounds queries that do not carry their own
	// deadline_ms (0 = unbounded).
	DefaultDeadline time.Duration
	// MaxLineBytes bounds one request frame (default 1 MiB).
	MaxLineBytes int
	// Tracing captures a span tree for every query. Off, only queries
	// that ask (request trace:true) are traced; either way the tracing
	// machinery costs nothing on untraced queries.
	Tracing bool
	// TraceRing bounds the completed traces retained for the TRACE verb
	// (default 64; the oldest is evicted first).
	TraceRing int
	// TraceSink, when non-nil, receives every completed trace — the hook
	// skipperd's -trace-dir uses to write Chrome trace files. Called
	// synchronously from the query's handler after the response is built.
	TraceSink func(*trace.Export)
	// SlowQuery logs queries whose wall time (queue wait included) meets
	// the threshold to SlowQueryLog (0 = off).
	SlowQuery time.Duration
	// SlowQueryLog receives slow-query lines (default os.Stderr).
	SlowQueryLog io.Writer
}

// NewConfig returns a Config with the serving defaults filled in for
// the given dataset.
func NewConfig(ds *workload.Dataset) Config {
	return Config{
		Dataset:    ds,
		Options:    skipper.Options{Mode: skipper.ModeSkipper, CacheObjects: 10},
		MaxTenants: 8,
	}
}

// tenantState is the server's per-tenant serving state: admission
// counters, the latency sketch behind the STATS percentiles, and the
// session-persistent segment cache.
type tenantState struct {
	counters metrics.AdmissionCounters
	latency  metrics.LatencySketch
	cache    *segcache.Cache // nil when SegCacheObjects is 0
	// Fault/recovery accounting, aggregated across the tenant's queries:
	// faults the device injected, retries the proxy issued, corrupt
	// deliveries the checksum caught, and recoveries that failed over to
	// a replica on another device.
	faultsInjected  atomic.Int64
	retries         atomic.Int64
	corruptSegments atomic.Int64
	failovers       atomic.Int64
	// Per-device GET ledgers (demand and prefetch) and crash-window
	// counts, indexed by device id; sized to the configured fleet at
	// tenant creation.
	deviceGets         []atomic.Int64
	devicePrefetchGets []atomic.Int64
	deviceCrashes      []atomic.Int64
}

// Server is the long-lived serving front end. Construct with New,
// start with Start, stop with Shutdown.
type Server struct {
	cfg     Config
	planner *sql.Planner
	store   map[segment.ObjectID]*segment.Segment
	adm     *Admission
	reg     *metrics.Registry
	slow    metrics.Counter // skipper_slow_queries_total
	// fleet is cfg.Fleet placed over the dataset once, read by every
	// query at once.
	fleet *skipper.Fleet

	base   context.Context // canceled on Shutdown: aborts queued and running queries
	cancel context.CancelFunc

	mu      sync.Mutex
	ln      net.Listener
	conns   map[net.Conn]struct{}
	tenants map[int]*tenantState
	closed  bool

	// Completed traces, retrievable with TRACE <id>, bounded by
	// cfg.TraceRing (oldest evicted). traceSeq numbers trace ids.
	traceMu    sync.Mutex
	traces     map[string]*trace.Export
	traceOrder []string
	traceSeq   atomic.Int64

	slowMu sync.Mutex // serializes slow-query log lines

	// The statement cache: planned specs by exact statement text.
	stmtMu               sync.Mutex
	stmts                map[string]skipper.QuerySpec
	stmtHits, stmtMisses metrics.Counter

	wg sync.WaitGroup // accept loop + connection handlers
}

// New builds a server over the dataset. The dataset's store is shared
// read-only across every concurrent query run (segments are immutable).
func New(cfg Config) (*Server, error) {
	if cfg.Dataset == nil {
		return nil, fmt.Errorf("server: config has no dataset")
	}
	if err := cfg.Options.Validate(); err != nil {
		return nil, fmt.Errorf("server: %w", err)
	}
	fleet, err := skipper.NewFleet(cfg.Fleet, nil, cfg.Dataset.Store, []*skipper.Client{cfg.Options.Client(0, cfg.Dataset.Catalog, nil)})
	if err != nil {
		return nil, fmt.Errorf("server: %w", err)
	}
	if cfg.MaxTenants <= 0 {
		cfg.MaxTenants = 8
	}
	if cfg.MaxLineBytes <= 0 {
		cfg.MaxLineBytes = DefaultMaxLineBytes
	}
	if cfg.TraceRing <= 0 {
		cfg.TraceRing = 64
	}
	if cfg.SlowQueryLog == nil {
		cfg.SlowQueryLog = os.Stderr
	}
	base, cancel := context.WithCancel(context.Background())
	s := &Server{
		cfg:     cfg,
		planner: &sql.Planner{Catalog: cfg.Dataset.Catalog},
		store:   cfg.Dataset.Store,
		fleet:   fleet,
		adm:     NewAdmission(cfg.Admission),
		reg:     metrics.NewRegistry(),
		base:    base,
		cancel:  cancel,
		conns:   make(map[net.Conn]struct{}),
		tenants: make(map[int]*tenantState),
		traces:  make(map[string]*trace.Export),
		stmts:   make(map[string]skipper.QuerySpec),
	}
	s.registerServerMetrics()
	return s, nil
}

// registerServerMetrics wires the server-wide series: admission
// occupancy gauges and the counters no per-tenant structure tracks.
// Per-tenant series are registered lazily when a tenant first appears
// (tenantState).
func (s *Server) registerServerMetrics() {
	s.reg.GaugeFunc("skipper_inflight_queries",
		"Queries executing right now, across all tenants.", nil,
		func() float64 { inflight, _ := s.adm.Occupancy(); return float64(inflight) })
	s.reg.GaugeFunc("skipper_admission_queued_queries",
		"Queries waiting for an execution slot right now.", nil,
		func() float64 { _, queued := s.adm.Occupancy(); return float64(queued) })
	s.reg.GaugeFunc("skipper_traces_retained",
		"Completed query traces retrievable with the TRACE verb.", nil,
		func() float64 {
			s.traceMu.Lock()
			defer s.traceMu.Unlock()
			return float64(len(s.traces))
		})
	s.slow = s.reg.Counter("skipper_slow_queries_total",
		"Queries whose wall time met the slow-query threshold.", nil)
	s.stmtHits = s.reg.Counter("skipper_statement_cache_hits_total",
		"Statements served a plan from the statement cache.", nil)
	s.stmtMisses = s.reg.Counter("skipper_statement_cache_misses_total",
		"Statements the statement cache did not hold, planned afresh.", nil)
	s.reg.GaugeFunc("skipper_statement_cache_entries",
		"Planned statements the statement cache holds.", nil,
		func() float64 {
			s.stmtMu.Lock()
			defer s.stmtMu.Unlock()
			return float64(len(s.stmts))
		})
}

// maxStatements bounds the statement cache. A full cache starts over, and
// a statement it dropped is simply planned again.
const maxStatements = 256

// plan returns a statement's planned spec, from the statement cache when it
// holds it: the catalog and the Options are fixed for the server's lifetime,
// so a plan depends on the text alone. A miss plans under the lock, so a
// statement is planned once however many sessions miss on it together;
// plan errors are not cached.
func (s *Server) plan(text string) (skipper.QuerySpec, error) {
	s.stmtMu.Lock()
	defer s.stmtMu.Unlock()
	if spec, ok := s.stmts[text]; ok {
		s.stmtHits.Inc()
		return spec, nil
	}
	s.stmtMisses.Inc()
	spec, err := s.planner.Plan(text)
	if err == nil {
		if len(s.stmts) == maxStatements {
			clear(s.stmts)
		}
		s.stmts[text] = spec
	}
	return spec, err
}

// Metrics exposes the server's metric registry — the /metrics endpoint
// of the debug listener serves it.
func (s *Server) Metrics() *metrics.Registry { return s.reg }

// Admission exposes the server's admission controller (read-only use:
// occupancy and resolved configuration).
func (s *Server) Admission() *Admission { return s.adm }

// Start listens on addr ("host:port", ":0" for an ephemeral port) and
// serves connections until Shutdown. It returns the bound address.
func (s *Server) Start(addr string) (net.Addr, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("server: listen %s: %w", addr, err)
	}
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		ln.Close()
		return nil, fmt.Errorf("server: already shut down")
	}
	s.ln = ln
	s.mu.Unlock()
	s.wg.Add(1)
	go s.acceptLoop(ln)
	return ln.Addr(), nil
}

// acceptLoop admits connections until the listener closes.
func (s *Server) acceptLoop(ln net.Listener) {
	defer s.wg.Done()
	for {
		conn, err := ln.Accept()
		if err != nil {
			return // listener closed by Shutdown
		}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			conn.Close()
			return
		}
		s.conns[conn] = struct{}{}
		s.mu.Unlock()
		s.wg.Add(1)
		go s.handleConn(conn)
	}
}

// Shutdown stops accepting, waits for in-flight sessions to drain, and
// — once ctx expires — cancels running queries and force-closes
// connections; then it stops the fleet's idle run kernels. It returns nil
// on a clean drain, the ctx error when force-closing was needed.
func (s *Server) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	s.closed = true
	ln := s.ln
	s.mu.Unlock()
	if ln != nil {
		ln.Close()
	}
	done := make(chan struct{})
	go func() { s.wg.Wait(); close(done) }()
	var dirty error
	select {
	case <-done:
	case <-ctx.Done():
		dirty = ctx.Err()
		s.cancel() // abort queued and executing queries
		s.mu.Lock()
		for c := range s.conns {
			c.Close() // unblock handlers waiting in Read
		}
		s.mu.Unlock()
		<-done
	}
	s.cancel()
	s.fleet.Close()
	return dirty
}

// Session is one client's state: its tenant binding, made by the first
// request that names a tenant (or to tenant 0 by the first statement
// without). A connection handler owns one; an in-process front end gets
// its own from NewSession and never needs the server Started. Not safe
// for concurrent use: one per goroutine, as one connection per client.
type Session struct {
	s      *Server
	tenant int // -1 until bound
}

// NewSession opens an in-process session.
func (s *Server) NewSession() *Session { return &Session{s: s, tenant: -1} }

// RoundTrip is what a socket does for a remote client, in process: check
// and normalize the request as ParseRequest would its frame, then Do it.
// The error is always nil; the signature is the wire client's.
func (ss *Session) RoundTrip(req *Request) (*Response, error) {
	if err := req.Normalize(); err != nil {
		return errorResponse(req.ID, ss.tenant, CodeProtocol, err), nil
	}
	return ss.Do(req), nil
}

// handleConn runs one session: read frame, parse, Do, write response.
func (s *Server) handleConn(conn net.Conn) {
	defer s.wg.Done()
	defer func() {
		conn.Close()
		s.mu.Lock()
		delete(s.conns, conn)
		s.mu.Unlock()
	}()
	sess := s.NewSession()
	br := bufio.NewReader(conn)
	enc := json.NewEncoder(conn)
	for {
		line, err := readFrame(br, s.cfg.MaxLineBytes)
		if err != nil {
			if errors.Is(err, ErrLineTooLong) {
				// Framing is lost; answer once and hang up.
				enc.Encode(errorResponse("", sess.tenant, CodeProtocol, err))
			}
			return // EOF, peer reset, or force-close
		}
		// A malformed frame answers with a typed error but keeps the
		// session alive: the peer's framing is intact (the line
		// terminated), only its content was bad.
		var resp *Response
		if req, err := ParseRequest(line); err != nil {
			resp = errorResponse("", sess.tenant, CodeProtocol, err)
		} else {
			resp = sess.Do(req)
		}
		if err := enc.Encode(resp); err != nil {
			return
		}
	}
}

// Do executes one normalized request (ParseRequest's or Normalize's
// output) and returns its response frame. It is the one statement path:
// every front end, over a socket or in process, ends here.
func (sess *Session) Do(req *Request) *Response {
	s := sess.s
	if req.Tenant != nil {
		t := *req.Tenant
		if t >= s.cfg.MaxTenants {
			return errorResponse(req.ID, sess.tenant, CodeTenant,
				fmt.Errorf("tenant %d out of range [0,%d)", t, s.cfg.MaxTenants))
		}
		if sess.tenant >= 0 && sess.tenant != t {
			return errorResponse(req.ID, sess.tenant, CodeTenant,
				fmt.Errorf("session is bound to tenant %d; reconnect to switch to %d", sess.tenant, t))
		}
		sess.tenant = t
	}
	switch req.Op {
	case OpHello:
		if sess.tenant < 0 {
			sess.tenant = 0
		}
		return &Response{ID: req.ID, Type: "hello", Tenant: sess.tenant}
	case OpStats:
		return s.statsResponse(req.ID, sess.tenant)
	case OpTrace:
		return s.traceResponse(req, sess.tenant)
	case OpExplain:
		if sess.tenant < 0 {
			sess.tenant = 0
		}
		return s.explain(req, sess.tenant)
	default: // OpQuery
		if sess.tenant < 0 {
			sess.tenant = 0
		}
		return s.runQuery(req, sess.tenant)
	}
}

// tenantState returns (creating on first use) a tenant's serving state.
func (s *Server) tenantState(tenant int) *tenantState {
	s.mu.Lock()
	ts, ok := s.tenants[tenant]
	if !ok {
		ts = &tenantState{
			deviceGets:         make([]atomic.Int64, s.numDevices()),
			devicePrefetchGets: make([]atomic.Int64, s.numDevices()),
			deviceCrashes:      make([]atomic.Int64, s.numDevices()),
		}
		if s.cfg.SegCacheObjects > 0 {
			ts.cache = segcache.NewObjects(s.cfg.SegCacheObjects)
		}
		s.tenants[tenant] = ts
	}
	s.mu.Unlock()
	if !ok {
		s.registerTenantMetrics(tenant, ts)
	}
	return ts
}

// registerTenantMetrics bridges one tenant's counters and latency
// sketch into the registry. The series read the same structures the
// STATS frame snapshots, so the two views can never disagree;
// registration is replace-on-rewire, hence idempotent.
func (s *Server) registerTenantMetrics(tenant int, ts *tenantState) {
	label := func() map[string]string {
		return map[string]string{"tenant": strconv.Itoa(tenant)}
	}
	bridge := func(outcome string, v *atomic.Int64) {
		l := label()
		l["outcome"] = outcome
		s.reg.CounterFunc("skipper_queries_total",
			"Queries by admission/execution outcome.", l,
			func() float64 { return float64(v.Load()) })
	}
	c := &ts.counters
	bridge("admitted", &c.Admitted)
	bridge("rejected", &c.Rejected)
	bridge("expired", &c.Expired)
	bridge("completed", &c.Completed)
	bridge("failed", &c.Failed)
	s.reg.CounterFunc("skipper_queued_queries_total",
		"Admitted queries that had to wait for a slot.", label(),
		func() float64 { return float64(c.Queued.Load()) })
	s.reg.CounterFunc("skipper_queue_wait_seconds_total",
		"Time spent waiting for an execution slot.", label(),
		func() float64 { return time.Duration(c.QueueWaitNS.Load()).Seconds() })
	s.reg.Summary("skipper_query_latency_seconds",
		"Wall latency of served queries, queue wait included.", label(),
		&ts.latency)
	s.reg.CounterFunc("skipper_faults_injected",
		"Faults the device's fault plan injected into this tenant's queries.", label(),
		func() float64 { return float64(ts.faultsInjected.Load()) })
	s.reg.CounterFunc("skipper_retries",
		"GET re-requests the client proxy issued after retryable faults.", label(),
		func() float64 { return float64(ts.retries.Load()) })
	s.reg.CounterFunc("skipper_corrupt_segments",
		"Deliveries the end-to-end checksum rejected as corrupt.", label(),
		func() float64 { return float64(ts.corruptSegments.Load()) })
	s.reg.CounterFunc("skipper_failovers",
		"Recoveries that re-requested an object from a replica on another device.", label(),
		func() float64 { return float64(ts.failovers.Load()) })
	for d := range ts.deviceGets {
		d := d
		dl := func() map[string]string {
			l := label()
			l["device"] = strconv.Itoa(d)
			return l
		}
		s.reg.CounterFunc("skipper_device_gets_total",
			"Demand GETs this tenant routed to the device.", dl(),
			func() float64 { return float64(ts.deviceGets[d].Load()) })
		s.reg.CounterFunc("skipper_device_prefetch_gets_total",
			"Prefetch GETs issued on this tenant's behalf to the device.", dl(),
			func() float64 { return float64(ts.devicePrefetchGets[d].Load()) })
		s.reg.CounterFunc("skipper_device_crashes_total",
			"Crash windows the device entered during this tenant's queries.", dl(),
			func() float64 { return float64(ts.deviceCrashes[d].Load()) })
	}
}

// numDevices resolves the configured fleet size (at least one).
func (s *Server) numDevices() int { return max(s.cfg.Fleet.N, 1) }

// runQuery is the serving path: plan, admit, execute, account. Traced
// queries (request trace:true or Config.Tracing) record a span per
// stage — plan, admission wait, execution (the engine nests its own
// spans under it), response drain — retrievable afterwards with
// TRACE <id>; untraced queries take the identical code path with a nil
// trace, which every recording call treats as a two-instruction no-op.
func (s *Server) runQuery(req *Request, tenant int) (resp *Response) {
	ts := s.tenantState(tenant)
	var qt *trace.QueryTrace
	if s.cfg.Tracing || req.Trace {
		id := "t" + strconv.Itoa(tenant) + "-" + strconv.FormatInt(s.traceSeq.Add(1), 10)
		qt = trace.NewQueryTrace(id, tenant, req.SQL)
		// Every exit path, error frames included, carries the trace id and
		// archives the trace.
		defer func() {
			resp.TraceID = qt.ID
			s.storeTrace(qt.ExportTrace())
		}()
	}
	planStart := qt.Origin() // zero when untraced; Emit is nil-safe
	spec, err := s.plan(req.SQL)
	qt.Emit(trace.CatPlan, "plan", planStart)
	if err != nil {
		return errorResponse(req.ID, tenant, CodePlan, err)
	}
	ctx := s.base
	deadline := s.cfg.DefaultDeadline
	if req.DeadlineMS > 0 {
		deadline = time.Duration(req.DeadlineMS) * time.Millisecond
	}
	if deadline > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, deadline)
		defer cancel()
	}
	start := time.Now()
	release, wait, refused := s.admit(ctx, req, tenant, ts)
	qt.Emit(trace.CatAdmission, "slot wait", start)
	if refused != nil {
		return refused
	}
	defer release()
	res, err := s.execute(ctx, tenant, ts, spec, qt)
	elapsed := time.Since(start)
	ts.latency.Record(elapsed)
	s.logSlowQuery(req, tenant, qt, elapsed, wait, err)
	if err != nil {
		if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
			ts.counters.Expired.Add(1)
			return errorResponse(req.ID, tenant, ctxCode(err), err)
		}
		ts.counters.Failed.Add(1)
		return errorResponse(req.ID, tenant, CodeExec, err)
	}
	ts.counters.Completed.Add(1)
	rows := res.Clients[0].PerQuery[0].Results
	drainStart := time.Now()
	rendered := renderRows(rows)
	qt.Emit(trace.CatDrain, "render rows", drainStart)
	resp = &Response{
		ID: req.ID, Type: "result", Tenant: tenant,
		Rows: rendered, RowCount: len(rows),
		WallUS:  durUS(elapsed),
		QueueUS: durUS(wait),
	}
	resp.account(res, ts.cache)
	return resp
}

// renderRows renders each row as Row.String does, into one buffer that
// the returned strings slice.
func renderRows(rows []tuple.Row) []string {
	rendered := make([]string, len(rows))
	ends := make([]int, len(rows))
	buf := make([]byte, 0, 32*len(rows))
	for i, r := range rows {
		buf = r.AppendText(buf)
		ends[i] = len(buf)
	}
	text, start := string(buf), 0
	for i, end := range ends {
		rendered[i], start = text[start:end], end
	}
	return rendered
}

// admit takes an execution slot for the tenant, accounting the wait and
// the outcome. A refusal — overload, deadline, shutdown — comes back as
// the error frame to answer with; otherwise the caller owns release.
func (s *Server) admit(ctx context.Context, req *Request, tenant int, ts *tenantState) (release func(), wait time.Duration, refused *Response) {
	release, wait, err := s.adm.Acquire(ctx, tenant)
	if wait > 0 {
		ts.counters.Queued.Add(1)
		ts.counters.AddQueueWait(wait)
	}
	switch {
	case err == nil:
		ts.counters.Admitted.Add(1)
		return release, wait, nil
	case errors.Is(err, ErrOverloaded):
		ts.counters.Rejected.Add(1)
		return nil, wait, errorResponse(req.ID, tenant, CodeOverloaded, err)
	default:
		ts.counters.Expired.Add(1)
		return nil, wait, errorResponse(req.ID, tenant, ctxCode(err), err)
	}
}

// logSlowQuery writes one line per query meeting the threshold.
func (s *Server) logSlowQuery(req *Request, tenant int, qt *trace.QueryTrace, elapsed, wait time.Duration, err error) {
	if s.cfg.SlowQuery <= 0 || elapsed < s.cfg.SlowQuery {
		return
	}
	s.slow.Inc()
	outcome := "ok"
	if err != nil {
		outcome = "error"
	}
	traceID := "-"
	if qt.Enabled() {
		traceID = qt.ID
	}
	s.slowMu.Lock()
	fmt.Fprintf(s.cfg.SlowQueryLog,
		"slow-query tenant=%d wall=%s queue=%s outcome=%s trace=%s sql=%q\n",
		tenant, elapsed.Round(time.Microsecond), wait.Round(time.Microsecond),
		outcome, traceID, req.SQL)
	s.slowMu.Unlock()
}

// storeTrace archives a completed trace for the TRACE verb, evicting
// the oldest past the ring bound, and feeds the configured sink.
func (s *Server) storeTrace(e *trace.Export) {
	s.traceMu.Lock()
	if _, dup := s.traces[e.ID]; !dup {
		s.traceOrder = append(s.traceOrder, e.ID)
	}
	s.traces[e.ID] = e
	for len(s.traceOrder) > s.cfg.TraceRing {
		delete(s.traces, s.traceOrder[0])
		s.traceOrder = s.traceOrder[1:]
	}
	s.traceMu.Unlock()
	if s.cfg.TraceSink != nil {
		s.cfg.TraceSink(e)
	}
}

// traceResponse serves TRACE <id>: the archived span tree of a traced
// query.
func (s *Server) traceResponse(req *Request, tenant int) *Response {
	s.traceMu.Lock()
	e := s.traces[req.TraceID]
	s.traceMu.Unlock()
	if e == nil {
		return errorResponse(req.ID, tenant, CodeNotFound,
			fmt.Errorf("trace %q not found (evicted, or the query was not traced)", req.TraceID))
	}
	return &Response{ID: req.ID, Type: "trace", Tenant: tenant, Trace: e}
}

// execute runs one admitted query as a single-client run of the server's
// fleet, wired to the tenant's persistent segment cache and the configured
// prefetch budget; a traced query's devices record into its trace's
// device lane. ctx bounds the run in real time. The result comes
// back with a failed run too, whenever the run got far enough to count.
func (s *Server) execute(ctx context.Context, tenant int, ts *tenantState, spec skipper.QuerySpec, qt *trace.QueryTrace) (*skipper.RunResult, error) {
	client := s.cfg.Options.Client(tenant, s.cfg.Dataset.Catalog, []skipper.QuerySpec{spec})
	client.SegCache, client.KeepResults, client.Ctx, client.QTrace = ts.cache, true, ctx, qt
	res, err := s.fleet.Run([]*skipper.Client{client}, qt.DeviceLane())
	if res == nil {
		return nil, err
	}
	// Fault accounting covers failed runs too — a query that exhausted
	// its retries still observed every one of them.
	cs := res.Clients[0]
	ts.retries.Add(int64(cs.Retries))
	ts.corruptSegments.Add(int64(cs.CorruptDeliveries))
	ts.failovers.Add(int64(cs.Failovers))
	for d, n := range cs.DeviceGets {
		ts.deviceGets[d].Add(int64(n))
	}
	for d, n := range cs.PrefetchDeviceGets {
		ts.devicePrefetchGets[d].Add(int64(n))
	}
	for _, st := range res.Faults {
		ts.faultsInjected.Add(st.Injected())
	}
	for d, st := range res.Devices {
		ts.deviceCrashes[d].Add(int64(st.Crashes))
	}
	return res, err
}

// explain plans the statement and renders the pull-engine operator tree,
// then what a run would request: segment fetches pruned; with a segment
// cache, how many of the rest are resident right now; over an encoded
// store, the column-block bytes the projection decodes and skips; with
// prefetch on, what it discloses to the scheduler.
func (s *Server) explain(req *Request, tenant int) *Response {
	spec, err := s.plan(req.SQL)
	if err != nil {
		return errorResponse(req.ID, tenant, CodePlan, err)
	}
	it, err := skipper.BuildPullPlanPruned(engine.NewTestCtx(s.store), spec.Join, !s.cfg.NoStatsPruning)
	if err != nil {
		return errorResponse(req.ID, tenant, CodePlan, err)
	}
	if it, err = spec.Shaped(it); err != nil {
		return errorResponse(req.ID, tenant, CodePlan, err)
	}
	if req.Analyze {
		return s.explainAnalyze(req, tenant, it)
	}
	var plan strings.Builder
	plan.WriteString(engine.Explain(it))
	cache := s.tenantState(tenant).cache
	fetches, resident := 0, 0
	var decodeB, skipB int64
	for rel, id := range spec.Join.Requested(!s.cfg.NoStatsPruning) {
		fetches++
		if cache != nil && cache.Contains(id) {
			resident++
		}
		for ci, m := range s.store[id].Directory() {
			if rel.Cols == nil || slices.Contains(rel.Cols, ci) {
				decodeB += int64(m.BlockLen)
			} else {
				skipB += int64(m.BlockLen)
			}
		}
	}
	total := len(spec.Join.Objects())
	fmt.Fprintf(&plan, "-- data skipping: %d of %d segment fetches pruned\n", total-fetches, total)
	if cache != nil {
		fmt.Fprintf(&plan, "-- segcache: %d of %d unpruned segment fetches cache-resident (served without a device GET)\n", resident, fetches)
	}
	if decodeB+skipB > 0 {
		fmt.Fprintf(&plan, "-- projection: decode %d of %d column-block bytes (%d skipped, %.0f%%)\n",
			decodeB, decodeB+skipB, skipB, 100*metrics.ProjectionRatio(decodeB, skipB))
	}
	if s.cfg.PrefetchBytes > 0 {
		fmt.Fprintf(&plan, "-- prefetch: up to %s ahead (%d candidate segment fetches disclosed to the scheduler)\n",
			gb(s.cfg.PrefetchBytes), fetches)
	}
	return &Response{ID: req.ID, Type: "explain", Tenant: tenant, Plan: plan.String()}
}

// explainAnalyze executes the pull plan with per-operator
// instrumentation armed and renders the tree annotated with measured
// rows/batches/bytes/time — EXPLAIN shows what the planner intends,
// EXPLAIN ANALYZE what actually flowed. It runs real work, so it passes
// through admission and is accounted like a query. The drain is serial
// (armed operator stats are unlocked).
func (s *Server) explainAnalyze(req *Request, tenant int, it engine.Iterator) *Response {
	ts := s.tenantState(tenant)
	release, _, refused := s.admit(s.base, req, tenant, ts)
	if refused != nil {
		return refused
	}
	defer release()
	start := time.Now()
	engine.EnableAnalyze(it)
	rows, err := engine.Collect(it)
	elapsed := time.Since(start)
	ts.latency.Record(elapsed)
	if err != nil {
		ts.counters.Failed.Add(1)
		return errorResponse(req.ID, tenant, CodeExec, err)
	}
	ts.counters.Completed.Add(1)
	plan := engine.ExplainAnalyze(it)
	plan += fmt.Sprintf("-- executed: %d rows in %s\n", len(rows), elapsed.Round(time.Microsecond))
	return &Response{ID: req.ID, Type: "explain", Tenant: tenant, Plan: plan, WallUS: durUS(elapsed)}
}

// statsResponse snapshots the serving metrics for the STATS verb.
func (s *Server) statsResponse(id string, tenant int) *Response {
	if tenant < 0 {
		tenant = 0
	}
	inflight, queued := s.adm.Occupancy()
	snap := &StatsSnapshot{
		Inflight: inflight,
		Queued:   queued,
		Tenants:  make(map[int]TenantSnapshot),
	}
	s.mu.Lock()
	ids := make([]int, 0, len(s.tenants))
	states := make(map[int]*tenantState, len(s.tenants))
	for t, ts := range s.tenants {
		ids = append(ids, t)
		states[t] = ts
	}
	s.mu.Unlock()
	sort.Ints(ids)
	for _, t := range ids {
		ts := states[t]
		adm := ts.counters.Snapshot()
		snap.Tenants[t] = TenantSnapshot{Admission: adm, Latency: ts.latency.Snapshot()}
		snap.Total = snap.Total.Add(adm)
	}
	return &Response{ID: id, Type: "stats", Tenant: tenant, Stats: snap}
}

// ctxCode maps a context error to its wire code.
func ctxCode(err error) string {
	if errors.Is(err, context.DeadlineExceeded) {
		return CodeDeadline
	}
	return CodeCanceled
}
