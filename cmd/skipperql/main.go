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
//	          [-cache N] [-segcache N] [-prune=false]
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
// the oracle the serving tests of internal/cliflags diff the daemon
// against; \d, which describes the dataset; and the prompt.
package main

import (
	"os"

	"repro/internal/cliflags"
)

// No signal handler: an interrupt ends skipperql at once (nothing to drain).
func main() {
	os.Exit(cliflags.Skipperql(os.Args[1:], os.Stdin, os.Stdout, os.Stderr))
}
