package cliflags

import (
	"flag"
	"fmt"
	"io"
	"strings"

	"repro/internal/server"
	"repro/internal/sql"
	"repro/internal/workload"
)

// Skipperql is the skipperql command (cmd/skipperql documents it): the
// statements of -c, or of stdin with a prompt, through an in-process
// session. It returns 2 for a usage error, 1 if a statement failed, else 0.
func Skipperql(args []string, stdin io.Reader, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("skipperql", flag.ContinueOnError)
	fs.SetOutput(stderr)
	shared := Bind(fs, 0)
	shared.AllowLocal = true
	command := fs.String("c", "", "run these ';'-separated statements and exit")
	traceFlag := fs.Bool("trace", false, "print every statement's span tree after its result")
	traceOut := fs.String("trace-out", "", "write the session's span trees as one Chrome trace-event JSON file")
	if err := fs.Parse(args); err == flag.ErrHelp {
		return 0
	} else if err != nil {
		return 2 // the flag package has printed why
	}

	run, err := shared.Resolve()
	if err != nil {
		return usageError(stderr, "skipperql", err)
	}
	cfg := run.ServerConfig()
	cfg.Tracing = *traceFlag || *traceOut != ""
	if *traceOut != "" {
		cfg.TraceSink = server.ChromeTraceFile(*traceOut)
	}
	srv, err := server.New(cfg)
	if err != nil {
		return usageError(stderr, "skipperql", err)
	}
	ds := run.Dataset
	sh := &server.Shell{
		RoundTrip: srv.NewSession().RoundTrip,
		Out:       stdout, Err: stderr, Name: "skipperql",
		ShowTrace: *traceFlag,
		Meta:      func(cmd string) { describe(stdout, ds, strings.TrimSpace(strings.TrimPrefix(cmd, `\d`))) },
	}
	if run.Local {
		sh.RoundTrip = localEngine(ds, !run.NoStatsPruning, sh.RoundTrip)
	}
	var input io.Reader = strings.NewReader(*command)
	if *command == "" {
		input, sh.Interactive = stdin, true
		fmt.Fprintf(stdout, "skipperql — %s dataset, %d objects, engine=%s, format=v2\n", run.Workload, len(ds.Catalog.AllObjects()), run.Engine)
		fmt.Fprintf(stdout, "tables: %s\n", strings.Join(ds.Catalog.TableNames(), ", "))
		fmt.Fprintln(stdout, `end statements with ';', '\q' quits, '\d table' describes a table, EXPLAIN SELECT ... shows the plan`)
	}
	if !sh.Run(input) {
		return 1
	}
	return 0
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

// describe is \d: every table's size, or one table's columns.
func describe(w io.Writer, ds *workload.Dataset, table string) {
	if table == "" {
		for _, name := range ds.Catalog.TableNames() {
			tm := ds.Catalog.MustTable(name)
			fmt.Fprintf(w, "  %-12s %3d objects, %6d rows\n", name, len(tm.Objects), tm.RowCount)
		}
		return
	}
	tm, err := ds.Catalog.Table(table)
	if err != nil {
		fmt.Fprintln(w, err)
		return
	}
	for _, c := range tm.Schema.Cols {
		fmt.Fprintf(w, "  %-24s %s\n", c.Name, c.Kind)
	}
}
