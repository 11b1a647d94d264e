package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net"
	"time"

	"repro/internal/server"
	"repro/internal/sql"
	"repro/internal/workload"
)

const (
	// serveConns closed-loop connections, one tenant each: the reference
	// host has two CPUs, and a caller of a dashboard waits for its reply.
	serveConns = 2

	microSQL = `SELECT n_name, r_name FROM nation, region WHERE n_regionkey = r_regionkey ORDER BY n_name`

	// The three dashboard templates over a shipdate window [%[1]s, %[2]s];
	// the 6-way join also bounds o_orderdate to the window's years
	// [%[3]s, %[4]s]. Integer aggregates and an ORDER BY keep the rows
	// identical under any arrival order.
	dashWindowSQL = `SELECT l_shipmode, COUNT(*) AS lines, SUM(l_quantity) AS qty
		FROM lineitem, orders WHERE l_orderkey = o_orderkey
		AND l_shipdate BETWEEN '%[1]s' AND '%[2]s'
		GROUP BY l_shipmode ORDER BY l_shipmode`
	dashScanSQL = `SELECT l_shipmode, COUNT(*) AS lines, SUM(l_quantity) AS qty
		FROM lineitem WHERE l_shipdate BETWEEN '%[1]s' AND '%[2]s'
		GROUP BY l_shipmode ORDER BY l_shipmode`
	dashJoin6SQL = `SELECT n_name, COUNT(*) AS lines, SUM(l_quantity) AS qty
		FROM customer, orders, lineitem, supplier, nation, region
		WHERE c_custkey = o_custkey AND o_orderkey = l_orderkey AND l_suppkey = s_suppkey
		AND s_nationkey = n_nationkey AND n_regionkey = r_regionkey
		AND o_orderdate BETWEEN '%[3]s' AND '%[4]s'
		AND l_shipdate BETWEEN '%[1]s' AND '%[2]s'
		GROUP BY n_name ORDER BY n_name`
)

var dashTemplates = []string{dashWindowSQL, dashScanSQL, dashJoin6SQL}

// dashWindows lays consecutive windows of the given number of months
// (three at full scale: a trailing quarter) over the generator's date
// range, 1992-01 to 1998-12, and renders each template over each window.
// Windows start on the 15th of February: the date-clustered objects hold
// about a year each and change over within two weeks of New Year, so a
// window either always straddles two of them or never does, whatever the
// seed; calendar quarters would make that a coin toss and the work per
// op bimodal across seeds.
func dashWindows(months int) [][]string {
	var out [][]string
	const day = "2006-01-02"
	for lo := time.Date(1992, 2, 15, 0, 0, 0, 0, time.UTC); ; lo = lo.AddDate(0, months, 0) {
		hi := lo.AddDate(0, months, -1)
		if hi.Year() > 1998 {
			return out
		}
		var qs []string
		for _, tpl := range dashTemplates {
			qs = append(qs, fmt.Sprintf(tpl, lo.Format(day), hi.Format(day),
				fmt.Sprintf("%d-01-01", lo.Year()), fmt.Sprintf("%d-12-31", hi.Year())))
		}
		out = append(out, qs)
	}
}

// serveOp is one request of a connection's round, built at set-up.
type serveOp struct {
	query  int    // index into serveState.queries
	line   []byte // the request frame
	traced []byte // the same with trace:true
}

type serveConn struct {
	conn net.Conn
	rd   *bufio.Reader
	ops  []serveOp
}

type serveState struct {
	gen, enc *workload.Dataset
	srv      *server.Server
	queries  []string   // distinct SQL texts
	want     [][]string // oracle rows per query
	conns    []*serveConn
	dash     bool
}

// setupServe generates and encodes the dataset, starts an in-process
// server on loopback and connects the load generator. The dashboard
// variant clusters dates and gives each tenant a segment cache smaller
// than the 9-object lineitem+orders footprint.
func setupServe(cfg *config, dash bool) (*instance, error) {
	st := &serveState{dash: dash}
	var err error
	if st.gen, st.enc, err = genTPCH(cfg, 0, dash); err != nil {
		return nil, err
	}
	sc := server.NewConfig(st.enc)
	sc.SegCacheObjects = 8
	if dash {
		sc.SegCacheObjects = 4
	}
	if st.srv, err = server.New(sc); err != nil {
		return nil, err
	}
	addr, err := st.srv.Start("127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	inst := &instance{
		conns:        serveConns,
		warmupRounds: (cfg.scale.microWarmup + cfg.scale.microRound - 1) / cfg.scale.microRound,
		round:        st.round,
		oracle:       func() error { return st.oracle(cfg) },
		close:        st.close,
		gen:          st.gen,
		enc:          st.enc,
	}
	perRound := cfg.scale.microRound
	if dash {
		inst.warmupRounds = cfg.scale.dashWarmupRounds
		perRound = cfg.scale.dashRound
		for _, qs := range dashWindows(cfg.scale.dashWindowMonths) {
			st.queries = append(st.queries, qs...)
		}
	} else {
		st.queries = []string{microSQL}
	}
	for c := 0; c < serveConns; c++ {
		conn, err := net.Dial("tcp", addr.String())
		if err != nil {
			st.close()
			return nil, err
		}
		sc := &serveConn{conn: conn, rd: bufio.NewReaderSize(conn, 64<<10)}
		st.conns = append(st.conns, sc)
		for _, q := range st.stream(cfg.seed, c, perRound) {
			op := serveOp{query: q}
			tenant := c
			req := server.Request{ID: fmt.Sprint(q), Tenant: &tenant, SQL: st.queries[q]}
			if op.line, err = json.Marshal(req); err != nil {
				st.close()
				return nil, err
			}
			req.Trace = true
			if op.traced, err = json.Marshal(req); err != nil {
				st.close()
				return nil, err
			}
			op.line, op.traced = append(op.line, '\n'), append(op.traced, '\n')
			sc.ops = append(sc.ops, op)
		}
	}
	return inst, nil
}

// stream is connection c's round: query indexes in the order they are
// sent. The micro workload repeats its one query. The dashboard round
// is a seeded shuffle of a fixed mix: each template runs once over every
// window (the 30 % of a dashboard's traffic that looks back) and the
// rest of its share, 70 % at full scale, spread evenly over the latest
// four windows. Seeds change the order and the data, not how much work
// a round holds.
func (st *serveState) stream(seed int64, c, perRound int) []int {
	if !st.dash {
		return make([]int, perRound)
	}
	nt := len(dashTemplates)
	windows := len(st.queries) / nt
	recentWindows := min(4, windows)
	var out []int
	for tpl := 0; tpl < nt; tpl++ {
		for w := 0; w < windows; w++ {
			out = append(out, w*nt+tpl)
		}
		for i := 0; i < perRound/nt-windows; i++ {
			out = append(out, (windows-1-i%recentWindows)*nt+tpl)
		}
	}
	rng := rand.New(rand.NewSource(seed*1000003 + int64(c)))
	rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

func (st *serveState) oracle(cfg *config) error {
	pl := &sql.Planner{Catalog: st.gen.Catalog}
	st.want = make([][]string, len(st.queries))
	used := make(map[int]bool)
	for _, sc := range st.conns {
		for _, op := range sc.ops {
			used[op.query] = true
		}
	}
	for q := range st.queries {
		if !used[q] {
			continue
		}
		spec, err := pl.Plan(st.queries[q])
		if err != nil {
			return fmt.Errorf("oracle: plan %q: %w", st.queries[q], err)
		}
		rows, err := workload.Evaluate(st.gen, spec)
		if err != nil {
			return fmt.Errorf("oracle: %q: %w", st.queries[q], err)
		}
		if len(rows) == 0 && !cfg.scale.allowEmpty {
			return fmt.Errorf("oracle: %q selects no rows at this scale and seed; the check would be vacuous", st.queries[q])
		}
		// The server renders rows with Row.String; the dashboard queries
		// aggregate integers only, so the text is identical at any order.
		st.want[q] = make([]string, len(rows))
		for i, r := range rows {
			st.want[q][i] = r.String()
		}
	}
	return nil
}

func (st *serveState) close() {
	for _, sc := range st.conns {
		sc.conn.Close()
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	st.srv.Shutdown(ctx) // the connections are closed, so this drains at once
}

// roundTrip sends one frame and reads one response frame.
func (sc *serveConn) roundTrip(line []byte) ([]byte, error) {
	if _, err := sc.conn.Write(line); err != nil {
		return nil, err
	}
	return sc.rd.ReadBytes('\n')
}

func (st *serveState) round(c int, rec *recorder) {
	sc := st.conns[c]
	for i := range sc.ops {
		st.op(sc, &sc.ops[i], rec)
	}
}

// op is one NDJSON round trip: send the query, wait for the result
// frame, decode it, compare the rows with the oracle's.
func (st *serveState) op(sc *serveConn, op *serveOp, rec *recorder) {
	line := op.line
	if rec.spans.enabled() {
		line = op.traced
	}
	root := rec.spans.beginOp()
	wait := rec.spans.begin("send+wait", "server", root)
	start := time.Now()
	raw, err := sc.roundTrip(line)
	wall := time.Since(start)
	rec.spans.end(wait)

	dec := rec.spans.begin("decode response", "bench", root)
	var resp server.Response
	if err == nil {
		err = json.Unmarshal(raw, &resp)
	}
	if err == nil && resp.Type != "result" {
		if resp.Code == server.CodeOverloaded && rec.layers {
			rec.add("rejected", 1)
		}
		err = fmt.Errorf("server answered %s/%s: %s", resp.Type, resp.Code, resp.Error)
	}
	if rec.digest == "" && err == nil {
		rec.digest = digestRows(resp.Rows)
	}
	rec.done(wall, err, resp.Rows, st.want[op.query])
	rec.spans.end(dec)
	rec.spans.end(root)

	if rec.spans.enabled() && err == nil {
		// The program's own trace of this query, through its public
		// switch: trace:true on the request, TRACE <id> to fetch it. The
		// fetch is outside the op's wall time but inside the traced
		// phase's throughput, so trace.overhead_pct pays for it.
		req, _ := json.Marshal(server.Request{Op: server.OpTrace, TraceID: resp.TraceID})
		var tr server.Response
		if raw, terr := sc.roundTrip(append(req, '\n')); terr == nil && json.Unmarshal(raw, &tr) == nil && tr.Trace != nil {
			// The frame does not say when the server's clock started
			// within the round trip; centre the trace in it.
			var extent int64
			for _, sp := range tr.Trace.Spans {
				if int64(sp.WallEnd) > extent {
					extent = int64(sp.WallEnd)
				}
			}
			w := rec.spans.spanByID(wait)
			at := w.Start + (w.End-w.Start-extent)/2
			rec.spans.adopt(wait, 1, at, tr.Trace.Spans)
		}
	}
	rec.spans.endOp(root)

	if !rec.layers || err != nil {
		return
	}
	rttUS := float64(wall) / 1e3
	// wall_us runs from before admission to after execution, so it
	// already holds the queue wait.
	rec.execUS = append(rec.execUS, float64(resp.WallUS-resp.QueueUS))
	rec.queueUS = append(rec.queueUS, float64(resp.QueueUS))
	rec.wireUS = append(rec.wireUS, rttUS-float64(resp.WallUS))
	rec.add("virt_us", resp.VirtualUS)
	rec.add("device_gets", int64(resp.Gets-resp.CacheHits))
	rec.add("gets_issued", int64(resp.Gets))
	rec.add("cache_hits", int64(resp.CacheHits))
	rec.add("segments_skipped", int64(resp.Pruned))
}
