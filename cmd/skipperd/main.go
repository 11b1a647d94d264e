// Command skipperd is the long-lived serving daemon over a generated
// dataset: a TCP server speaking the newline-delimited JSON protocol of
// internal/server, with per-connection tenant sessions, persistent
// per-tenant segment caches and admission control (bounded in-flight
// slots, per-tenant quotas with fair queueing, queue-depth backpressure,
// per-query deadlines).
//
// Modes:
//
//	skipperd [dataset flags] [serving flags]      start the daemon
//	skipperd -client [-tenant N] [-c "STMT; STMT"] run statements against a daemon
//	skipperd -loadgen -workers N -duration D      closed-loop load, latency percentiles
//
// The dataset, engine and fleet/fault flags are skipperql's (both bind
// internal/cliflags and serve from the server.Config it resolves to), and
// -client is skipperql's statement loop and renderer (server.Shell,
// server.Render) over a socket instead of an in-process session: the same
// ';'-terminated statements from -c or stdin, the same rows, row count
// and "-- " footer lines on stdout, errors on stderr and a non-zero exit
// if any statement failed — so a scripted session can be diffed against
// a skipperql run of the same statements.
//
// Observability: -metrics-addr starts an HTTP sidecar serving the
// Prometheus exposition (/metrics) and runtime profiles (/debug/pprof);
// -trace captures a span tree for every query (clients may instead opt
// in per request with trace:true, and retrieve trees with TRACE <id>);
// -trace-dir writes each completed trace as a Chrome trace-event JSON
// file; -slow-query logs queries over a wall-time threshold to stderr.
package main

import (
	"context"
	"os"
	"os/signal"
	"syscall"

	"repro/internal/cliflags"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	code := cliflags.Skipperd(ctx, os.Args[1:], os.Stdin, os.Stdout, os.Stderr)
	stop()
	os.Exit(code)
}
