// Command skipperql is an interactive SQL shell over a generated dataset
// stored on the simulated Cold Storage Device. It is a front end of
// internal/server in one process: the flags become a server.Config, the
// server is never started on a socket, and every statement travels
// through an in-process session of it — the statement path, statement
// loop and renderer skipperd and its -client use over the wire, so the
// two shells print the same thing for the same statement: result rows
// (the first 40), a row count, and "-- " footer lines with the run's
// virtual time, GETs and group switches and, when they happened, fleet,
// fault, cache, decode and prefetch accounts.
//
//	skipperql [-workload tpch|ssb|mrbench|nref] [-sf N] [-engine skipper|vanilla|local]
//	          [-cache N] [-segcache N] [-prune=false] [-format mem|v2]
//	          [-trace] [-trace-out FILE] [-c "STMT; STMT"]
//
// Statements end with ';' and may span lines; -c (or a pipe) runs them
// and exits, non-zero if any failed, with errors on stderr. EXPLAIN,
// EXPLAIN ANALYZE, STATS and TRACE <id> are the server's verbs. -trace
// prints every statement's span tree after its result, device lane
// included; -trace-out FILE writes the session's traces as one Chrome
// trace-event JSON file (chrome://tracing, https://ui.perfetto.dev).
// -segcache N is a segment cache that persists across statements.
//
// skipperql's own: -engine local, which evaluates a query with
// workload.Evaluate — the reference implementation, no simulated device,
// the oracle the serving smoke diffs the daemon against; \d, which
// describes the dataset; and the prompt.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"repro/internal/cliflags"
	"repro/internal/server"
	"repro/internal/sql"
	"repro/internal/workload"
)

func main() {
	shared := cliflags.Bind(flag.CommandLine, 0)
	shared.AllowLocal = true
	command := flag.String("c", "", "run these ';'-separated statements and exit")
	traceFlag := flag.Bool("trace", false, "print every statement's span tree after its result")
	traceOut := flag.String("trace-out", "", "write the session's span trees as one Chrome trace-event JSON file")
	flag.Parse()

	run, err := shared.Resolve()
	if err != nil {
		fatal(err)
	}
	cfg := run.ServerConfig()
	cfg.Tracing = *traceFlag || *traceOut != ""
	if *traceOut != "" {
		cfg.TraceSink = server.ChromeTraceFile(*traceOut)
	}
	srv, err := server.New(cfg)
	if err != nil {
		fatal(err)
	}
	ds := run.Dataset
	sh := &server.Shell{
		RoundTrip: srv.NewSession().RoundTrip,
		Out:       os.Stdout, Err: os.Stderr, Name: "skipperql",
		ShowTrace: *traceFlag,
		Meta:      func(cmd string) { describe(ds, strings.TrimSpace(strings.TrimPrefix(cmd, `\d`))) },
	}
	if run.Local {
		sh.RoundTrip = localEngine(ds, run.Prune, sh.RoundTrip)
	}
	var input io.Reader = strings.NewReader(*command)
	if *command == "" {
		input, sh.Interactive = os.Stdin, true
		fmt.Printf("skipperql — %s dataset, %d objects, engine=%s, format=%s\n", run.Workload, len(ds.Catalog.AllObjects()), run.Engine, run.Format)
		fmt.Printf("tables: %s\n", strings.Join(ds.Catalog.TableNames(), ", "))
		fmt.Println(`end statements with ';', '\q' quits, '\d table' describes a table, EXPLAIN SELECT ... shows the plan`)
	}
	if !sh.Run(input) {
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "skipperql: %v\n", err)
	os.Exit(2)
}

// localEngine answers queries with workload.EvaluatePruned — the
// reference evaluation, independent of the engines and the simulated
// device — and hands every other verb to the server's round trip.
func localEngine(ds *workload.Dataset, prune bool, next func(*server.Request) (*server.Response, error)) func(*server.Request) (*server.Response, error) {
	planner := &sql.Planner{Catalog: ds.Catalog}
	return func(req *server.Request) (*server.Response, error) {
		if err := req.Normalize(); err != nil || req.Op != server.OpQuery {
			return next(req)
		}
		spec, err := planner.Plan(req.SQL)
		if err != nil {
			return next(req) // the server reports the plan error
		}
		rows, err := workload.EvaluatePruned(ds, spec, prune)
		if err != nil {
			return &server.Response{Type: "error", Code: server.CodeExec, Error: err.Error()}, nil
		}
		resp := &server.Response{Type: "result", RowCount: len(rows), Rows: make([]string, len(rows))}
		for i, r := range rows {
			resp.Rows[i] = r.String()
		}
		return resp, nil
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
