#!/usr/bin/env bash
# skipperd serving smoke: start the daemon, run a scripted multi-tenant
# session over the wire, and diff every result against the reference
# evaluation of the same statements on the same dataset (skipperql
# -engine local: workload.Evaluate, which shares no code with the daemon
# below the planner). Planning, admission, sessions, engines, devices and
# transport may decide when a query answers — never what it returns.
source "$(dirname "$0")/smoke_lib.sh"

boot_daemon 127.0.0.1:7878 127.0.0.1:7879 -prefetch 4 \
  -inflight 2 -tenant-slots 1 -queue-depth 16 \
  -trace -trace-dir "$workdir/traces"

served > "$workdir/wire.txt"
oracle > "$workdir/direct.txt"
diff -u "$workdir/direct.txt" "$workdir/wire.txt"
echo "skipperd smoke: $((${#TENANTS[@]} * ${#QUERIES[@]})) served results byte-identical to the reference evaluation"

# One statement path, one renderer: for the same statements skipperql
# (an in-process session) and skipperd -client (a socket) print the same
# bytes, "-- " footer lines included, once host time is masked. Tenant 3
# has touched nothing yet, as a fresh skipperql session has not.
mix=$(printf '%s; ' "${QUERIES[@]}")"EXPLAIN ${QUERIES[2]}"
mask() { sed -E 's/[0-9.]+(ns|µs|ms|s) (queued|wall|busy)/T \2/g'; }
"$workdir/skipperd" -client -addr "$ADDR" -tenant 3 -c "$mix" | mask > "$workdir/shell-wire.txt"
"$workdir/skipperql" "${DATASET[@]}" -prefetch 4 -segcache 8 -c "$mix" | mask > "$workdir/shell-direct.txt"
diff -u "$workdir/shell-direct.txt" "$workdir/shell-wire.txt"
grep -Eq '^-- prefetch: [0-9]+ issued' "$workdir/shell-wire.txt"
# EXPLAIN prints the whole plan: the walk does not stop at Distinct.
"$workdir/skipperd" -client -addr "$ADDR" -c "EXPLAIN SELECT DISTINCT n_regionkey FROM nation ORDER BY n_regionkey" | grep 'SeqScan nation' > /dev/null
echo "skipperd smoke: skipperql and skipperd -client print the same bytes for the statement mix"

# Both shells send error frames to stderr and exit non-zero.
for shell in "$workdir/skipperql ${DATASET[*]}" "$workdir/skipperd -client -addr $ADDR"; do
  if $shell -c "SELECT nope FROM nowhere; SELECT COUNT(*) AS n FROM region" > "$workdir/out.txt" 2> "$workdir/err.txt"; then
    echo "$shell: a failed statement exited 0" >&2; exit 1
  fi
  grep -q 'plan error' "$workdir/err.txt" && ! grep -q 'error' "$workdir/out.txt" && grep -q '(1 rows)' "$workdir/out.txt" \
    || { echo "$shell: the error is not on stderr alone, or the next statement did not run" >&2; exit 1; }
done
echo "skipperd smoke: both shells fail loudly and keep going"

# The admission path must reject, not stall, when saturated: run brief
# closed-loop load and require a clean exit (failures are fatal inside
# loadgen; overload rejections are not). The soak runs in the
# background so the metrics sidecar can be scraped mid-soak — the
# observability plane must answer while the query plane is saturated.
"$workdir/skipperd" -loadgen -addr "$ADDR" -workers 6 -duration 4s \
  > "$workdir/loadgen.txt" 2>&1 &
loadgen=$!
sleep 2
scrape metrics-midsoak.txt
curl -sf "http://$METRICS/debug/pprof/goroutine?debug=1" > "$workdir/pprof-goroutine.txt"
grep -q goroutine "$workdir/pprof-goroutine.txt"
wait "$loadgen"
cat "$workdir/loadgen.txt"
grep -q 'p99.9=' "$workdir/loadgen.txt" \
  || { echo "loadgen output lacks the p99.9 column" >&2; exit 1; }

# The mid-soak scrape must expose every required metric family, with
# the serving counters live (non-zero: the scripted session above
# already completed queries before the soak began).
check_metric '^# TYPE skipper_queries_total counter$'
check_metric '^skipper_queries_total\{outcome="completed",tenant="0"\} [1-9]'
check_metric '^# TYPE skipper_query_latency_seconds summary$'
check_metric '^skipper_query_latency_seconds_count\{tenant="0"\} [1-9]'
check_metric '^skipper_query_latency_seconds\{tenant="0",quantile="0\.999"\} [0-9]'
check_metric '^skipper_queue_wait_seconds_total\{tenant="0"\} [0-9]'
check_metric '^# TYPE skipper_inflight_queries gauge$'
check_metric '^# TYPE skipper_admission_queued_queries gauge$'
check_metric '^# TYPE skipper_slow_queries_total counter$'
check_metric '^# TYPE skipper_traces_retained gauge$'
check_metric '^skipper_traces_retained [1-9]'
echo "skipperd smoke: metrics exposition and pprof answered mid-soak"

# Every query was traced (-trace): the trace directory holds Chrome
# trace files, and the TRACE verb serves a span tree over the wire.
# Retrieve the newest trace — the ring evicts old ones under load.
# (No `ls -t | head` here: early-exiting pipe readers SIGPIPE the
# writer, which pipefail turns into a spurious smoke failure.)
ls "$workdir/traces"/t0-*.json > /dev/null
newest=
for f in "$workdir/traces"/*.json; do
  if [ -z "$newest" ] || [ "$f" -nt "$newest" ]; then newest=$f; fi
done
"$workdir/skipperd" -client -addr "$ADDR" -c "TRACE $(basename "$newest" .json)" \
  | grep 'query' > /dev/null

# STATS must report the traffic the smoke produced.
"$workdir/skipperd" -client -addr "$ADDR" -c STATS \
  | grep '"completed"' > /dev/null
echo "skipperd smoke: OK"
