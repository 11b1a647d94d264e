// Command skipperql is an interactive SQL shell over a generated dataset
// stored on the simulated Cold Storage Device. Each statement is planned
// onto the multi-way join core and executed by the chosen engine; the
// shell reports virtual execution time, GET counts and group switches
// alongside the result rows.
//
// Usage:
//
//	skipperql [-workload tpch|ssb|mrbench|nref] [-sf N] [-engine skipper|vanilla|local]
//	          [-cache N] [-segcache N] [-prune=false] [-format mem|v1|v2]
//	          [-trace] [-trace-out FILE]
//
// Example session:
//
//	> SELECT n_name, COUNT(*) AS n FROM nation, region
//	  WHERE n_regionkey = r_regionkey GROUP BY n_name LIMIT 3;
//
// Prefixing a statement with EXPLAIN prints the pull-engine plan instead
// of executing it, including, per scan, the predicate pushed down for
// data skipping, how many segments the catalog statistics prune, and the
// columns the projection decodes; with an encoded store (-format v1/v2)
// it also reports how many column-block bytes the plan would decode
// versus skip.
//
// EXPLAIN ANALYZE executes the plan with per-operator instrumentation
// armed and prints the tree annotated with measured rows, batches,
// logical bytes and inclusive time per operator.
//
// -trace records the simulator's structured event log during each run
// and prints its per-kind summary in the footer; -trace-out FILE
// additionally captures a hierarchical span tree per statement and
// writes the session's traces as a Chrome trace-event JSON file
// (load in chrome://tracing or https://ui.perfetto.dev).
//
// -format selects the segment wire format the store serves: v2 (the
// columnar default — scans decode only referenced column blocks), v1
// (row-major), or mem (in-memory segments, no decode work).
//
// -segcache N enables a shared segment cache of N objects that persists
// across the session's statements: re-running a query (or touching the
// same segments again) is served from memory at zero device cost. The
// run footer reports residency and the lifetime hit ratio; EXPLAIN
// reports how many of a plan's fetches are currently cache-resident.
package main

import (
	"bufio"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"repro/internal/cliflags"
	"repro/internal/engine"
	"repro/internal/metrics"
	"repro/internal/segcache"
	"repro/internal/skipper"
	"repro/internal/sql"
	"repro/internal/stats"
	"repro/internal/trace"
	"repro/internal/tuple"
	"repro/internal/workload"
)

// obs carries the session's observability knobs: the -trace event log
// (per-statement simulator events, summarized in the run footer) and
// the -trace-out span capture (accumulated across statements and
// written as one Chrome trace-event file after each run).
type obs struct {
	traceLog bool
	traceOut string
	exports  []*trace.Export
	seq      int
}

// capture starts a span capture for one statement when -trace-out is
// set (nil otherwise — tracing-off runs record nothing).
func (o *obs) capture(stmtText string) *trace.QueryTrace {
	if o.traceOut == "" {
		return nil
	}
	o.seq++
	return trace.NewQueryTrace(fmt.Sprintf("q%d", o.seq), 0, strings.TrimSpace(stmtText))
}

// flush archives a finished capture and rewrites the Chrome trace file
// with everything captured so far, so the file is valid after every
// statement.
func (o *obs) flush(qt *trace.QueryTrace) {
	if qt == nil {
		return
	}
	o.exports = append(o.exports, qt.ExportTrace())
	f, err := os.Create(o.traceOut)
	if err != nil {
		fmt.Fprintf(os.Stderr, "skipperql: trace-out: %v\n", err)
		return
	}
	defer f.Close()
	if err := trace.WriteChrome(f, trace.ClockWall, o.exports...); err != nil {
		fmt.Fprintf(os.Stderr, "skipperql: trace-out: %v\n", err)
		return
	}
	e := o.exports[len(o.exports)-1]
	fmt.Printf("-- trace: %d spans captured (chrome://tracing file %s)\n", len(e.Spans), o.traceOut)
}

// session is one shell's state: what the flags resolved to, the planner
// over its dataset, and the segment cache that persists across statements
// — a re-run of a query (or one touching the same segments) is served
// from memory instead of the device.
type session struct {
	*cliflags.Run
	planner *sql.Planner
	cache   *segcache.Cache
	obs     *obs
}

func main() {
	shared := cliflags.Bind(flag.CommandLine, 0)
	shared.AllowLocal = true
	command := flag.String("c", "", "run one statement and exit")
	traceFlag := flag.Bool("trace", false, "record simulator trace events and print a per-statement summary")
	traceOut := flag.String("trace-out", "", "capture per-statement span trees and write a Chrome trace-event JSON file")
	flag.Parse()

	run, err := shared.Resolve()
	if err != nil {
		fmt.Fprintf(os.Stderr, "skipperql: %v\n", err)
		os.Exit(2)
	}
	sess := &session{
		Run:     run,
		planner: &sql.Planner{Catalog: run.Dataset.Catalog},
		obs:     &obs{traceLog: *traceFlag, traceOut: *traceOut},
	}
	if run.SegCache > 0 {
		sess.cache = segcache.NewObjects(run.SegCache)
	}
	if *command != "" {
		sess.execute(*command)
		return
	}

	ds := run.Dataset
	fmt.Printf("skipperql — %s dataset, %d objects, engine=%s, format=%s\n", run.Workload, len(ds.Catalog.AllObjects()), run.Engine, run.Format)
	fmt.Printf("tables: %s\n", strings.Join(ds.Catalog.TableNames(), ", "))
	fmt.Println(`end statements with ';', '\q' quits, '\d table' describes a table, EXPLAIN SELECT ... shows the plan`)

	scanner := bufio.NewScanner(os.Stdin)
	scanner.Buffer(make([]byte, 1<<20), 1<<20)
	var buf strings.Builder
	fmt.Print("> ")
	for scanner.Scan() {
		line := scanner.Text()
		trimmed := strings.TrimSpace(line)
		if trimmed == `\q` || trimmed == "quit" || trimmed == "exit" {
			return
		}
		if strings.HasPrefix(trimmed, `\d`) {
			describe(ds, strings.TrimSpace(strings.TrimPrefix(trimmed, `\d`)))
			fmt.Print("> ")
			continue
		}
		buf.WriteString(line)
		buf.WriteByte('\n')
		if !strings.Contains(line, ";") {
			fmt.Print("… ")
			continue
		}
		stmtText := buf.String()
		buf.Reset()
		sess.execute(stmtText)
		fmt.Print("> ")
	}
}

func describe(ds *workload.Dataset, table string) {
	if table == "" {
		for _, name := range ds.Catalog.TableNames() {
			tm := ds.Catalog.MustTable(name)
			fmt.Printf("  %-12s %3d objects, %6d rows\n", name, len(tm.Objects), tm.RowCount)
		}
		return
	}
	tm, err := ds.Catalog.Table(table)
	if err != nil {
		fmt.Println(err)
		return
	}
	for _, c := range tm.Schema.Cols {
		fmt.Printf("  %-24s %s\n", c.Name, c.Kind)
	}
}

// execute runs one statement. A query runs as a single-client cluster
// over the session's fleet — a fresh expansion per statement, so every
// statement sees the same deterministic fault schedule on its own virtual
// clock — and the rows printed are the rows that cluster returned.
func (s *session) execute(stmtText string) {
	ds, prune, sc, pc := s.Dataset, s.Prune, s.cache, s.Pipeline
	if rest, analyze, ok := sql.StripExplain(stmtText); ok {
		if analyze {
			explainAnalyzeStmt(s.planner, ds, prune, rest)
			return
		}
		explainStmt(s.planner, ds, prune, sc, pc, rest)
		return
	}
	spec, err := s.planner.Plan(stmtText)
	if err != nil {
		fmt.Println(err)
		return
	}
	if s.Local {
		rows, err := workload.EvaluatePruned(ds, spec, prune)
		if err != nil {
			fmt.Println(err)
			return
		}
		printRows(rows)
		return
	}
	ob := s.obs
	qt := ob.capture(stmtText)
	client := &skipper.Client{
		Tenant: 0, Mode: s.Mode, Catalog: ds.Catalog,
		Queries: []skipper.QuerySpec{spec}, CacheObjects: s.MJoinCache,
		StatsPruning: &prune,
		SegCache:     sc,
		Pipeline:     pc,
		QTrace:       qt,
		Retry:        s.Retry,
		KeepResults:  true,
	}
	cluster := &skipper.Cluster{Clients: []*skipper.Client{client}, Fleet: s.Fleet, Store: ds.Store}
	var tl *trace.Log
	if ob.traceLog {
		tl = &trace.Log{}
		cluster.Events = tl
	}
	res, err := cluster.Run()
	if err != nil {
		fmt.Println(err)
		return
	}
	cs := res.Clients[0]
	printRows(cs.PerQuery[0].Results)
	mode := s.Mode
	fmt.Printf("-- %s: %.1fs virtual (processing %.1fs, stalled %.1fs), %d GETs (%d from cache, %d pruned), %d switches\n",
		mode, cs.Elapsed().Seconds(), cs.Processing.Seconds(), cs.Stalled().Seconds(),
		cs.GetsIssued, cs.CacheHits, cs.SegmentsSkipped, res.CSD.GroupSwitches)
	if len(res.Devices) > 1 {
		parts := make([]string, len(res.Devices))
		for d, st := range res.Devices {
			parts[d] = fmt.Sprintf("d%d:%d", d, st.GetsReceived)
		}
		fmt.Printf("-- fleet: %d devices, replication %s, GETs %s\n",
			len(res.Devices), s.Fleet.Replication, strings.Join(parts, " "))
	}
	if cs.Retries > 0 || cs.TransientFaults > 0 || cs.CorruptDeliveries > 0 || res.CSD.Crashes > 0 {
		fmt.Printf("-- faults: %d transient, %d corrupt, %d crashes; recovered with %d retries (%.1fs backoff)",
			cs.TransientFaults, cs.CorruptDeliveries, res.CSD.Crashes, cs.Retries, cs.RetryBackoff.Seconds())
		if cs.Failovers > 0 {
			fmt.Printf(", %d failovers", cs.Failovers)
		}
		fmt.Println()
	}
	if sc != nil {
		st := sc.Stats()
		fmt.Printf("-- segcache: %d objects resident (%s of %s budget), %.0f%% lifetime hit ratio\n",
			st.Entries, gb(st.BytesCached), gb(st.Budget),
			100*metrics.HitRatio(st.Hits, st.Misses))
	}
	if cs.BytesFetched > 0 {
		fmt.Printf("-- bytes: %d fetched, %d decoded, %d skipped by projection (%.0f%%), %d materialized\n",
			cs.BytesFetched, cs.BytesDecoded, cs.BytesSkippedByProjection,
			100*metrics.ProjectionRatio(cs.BytesDecoded, cs.BytesSkippedByProjection), cs.BytesMaterialized)
	}
	if pc != nil {
		pb := metrics.PipelineFrom(cs.Pipe)
		fmt.Printf("-- pipeline: %d prefetched (%d served staged, %d useful), decode %s busy / %s stalled / %s hidden (%.0f%% overlap), %v wall\n",
			cs.PrefetchIssued, cs.PrefetchServed, cs.PrefetchUseful,
			pb.DecodeBusy.Round(time.Microsecond), pb.DecodeStall.Round(time.Microsecond),
			pb.Hidden.Round(time.Microsecond), 100*pb.OverlapRatio(),
			cs.WallElapsed.Round(time.Microsecond))
	}
	if tl != nil {
		fmt.Print("-- trace summary:\n")
		fmt.Print(tl.Summary())
	}
	ob.flush(qt)
}

// explainAnalyzeStmt executes the pull plan with per-operator
// instrumentation armed and prints the tree annotated with measured
// rows/batches/bytes/time — EXPLAIN shows what the planner intends,
// EXPLAIN ANALYZE what actually flowed.
func explainAnalyzeStmt(planner *sql.Planner, ds *workload.Dataset, prune bool, stmtText string) {
	spec, err := planner.Plan(stmtText)
	if err != nil {
		fmt.Println(err)
		return
	}
	it, err := skipper.BuildPullPlanPruned(engine.NewTestCtx(ds.Store), spec.Join, prune)
	if err != nil {
		fmt.Println(err)
		return
	}
	if spec.Shape != nil {
		it = spec.Shape(it)
	}
	engine.EnableAnalyze(it)
	start := time.Now()
	rows, err := engine.Collect(it)
	elapsed := time.Since(start)
	if err != nil {
		fmt.Println(err)
		return
	}
	fmt.Print(engine.ExplainAnalyze(it))
	fmt.Printf("-- executed: %d rows in %s\n", len(rows), elapsed.Round(time.Microsecond))
}

// gb renders a byte count as gigabytes.
func gb(b int64) string { return fmt.Sprintf("%.0f GB", float64(b)/1e9) }

// explainStmt plans the statement and prints the pull-engine operator
// tree, with per-scan data-skipping detail (pushed-down predicate,
// segments pruned), a whole-query pruning summary, and — when the
// session runs with a shared segment cache — how many of the plan's
// unpruned segment fetches are cache-resident right now (i.e. would be
// served without a device GET).
func explainStmt(planner *sql.Planner, ds *workload.Dataset, prune bool, sc *segcache.Cache, pc *skipper.PipelineConfig, stmtText string) {
	spec, err := planner.Plan(stmtText)
	if err != nil {
		fmt.Println(err)
		return
	}
	it, err := skipper.BuildPullPlanPruned(engine.NewTestCtx(ds.Store), spec.Join, prune)
	if err != nil {
		fmt.Println(err)
		return
	}
	if spec.Shape != nil {
		it = spec.Shape(it)
	}
	fmt.Print(engine.Explain(it))
	total, skipped, resident, fetches := 0, 0, 0, 0
	var decodeB, skipB int64
	for _, rel := range spec.Join.Relations {
		total += len(rel.Table.Objects)
		if prune {
			skipped += stats.CountSkipped(rel.Pruner, len(rel.Table.Objects))
		}
		if sc != nil {
			for si, id := range rel.Table.Objects {
				if prune && rel.Pruner != nil && rel.Pruner.CanSkip(si) {
					continue
				}
				fetches++
				if sc.Contains(id) {
					resident++
				}
			}
		}
		// Estimate the projection's block-byte effect from the column
		// directories of the unpruned segments (encoded v2 stores only).
		want := map[int]bool{}
		for _, ci := range rel.Cols {
			want[ci] = true
		}
		for si, id := range rel.Table.Objects {
			if prune && rel.Pruner != nil && rel.Pruner.CanSkip(si) {
				continue
			}
			dir := ds.Store[id].Directory()
			for ci, m := range dir {
				if rel.Cols == nil || want[ci] {
					decodeB += int64(m.BlockLen)
				} else {
					skipB += int64(m.BlockLen)
				}
			}
		}
	}
	fmt.Printf("-- data skipping: %d of %d segment fetches pruned\n", skipped, total)
	if sc != nil {
		fmt.Printf("-- segcache: %d of %d unpruned segment fetches cache-resident (served without a device GET)\n",
			resident, fetches)
	}
	if decodeB+skipB > 0 {
		fmt.Printf("-- projection: decode %d of %d column-block bytes (%d skipped, %.0f%%)\n",
			decodeB, decodeB+skipB, skipB, 100*metrics.ProjectionRatio(decodeB, skipB))
	}
	if pc != nil {
		candidates := 0
		for _, rel := range spec.Join.Relations {
			for si := range rel.Table.Objects {
				if prune && rel.Pruner != nil && rel.Pruner.CanSkip(si) {
					continue
				}
				candidates++
			}
		}
		fmt.Printf("-- pipeline: prefetch up to %s ahead (%d candidate segment fetches disclosed to the scheduler), %d decode workers\n",
			gb(pc.PrefetchBytes), candidates, pc.DecodeWorkers)
	}
}

func printRows(rows []tuple.Row) {
	for i, r := range rows {
		if i >= 40 {
			fmt.Printf("... (%d rows total)\n", len(rows))
			return
		}
		fmt.Println(r)
	}
	fmt.Printf("(%d rows)\n", len(rows))
}
