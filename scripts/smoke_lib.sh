# Shared by the serving smokes (skipperd_smoke.sh, chaos_smoke.sh,
# scale_smoke.sh); source it, do not run it. It builds skipperd and
# skipperql into a scratch directory, cleans up on exit, and provides
# the steps the three scripts have in common: boot a daemon, run the
# statement mix through tenant sessions over the wire, run it through
# skipperql as the oracle, and grep a /metrics scrape. skipperql's engine
# runs travel the daemon's own statement path (an in-process session of
# internal/server), so the oracle that must be independent code — the one
# with no flags — is `skipperql -engine local`, the workload.Evaluate
# reference; with flags, oracle compares configurations of that path.
set -euo pipefail

cd "$(dirname "${BASH_SOURCE[0]}")/.."

DATASET=(-workload tpch -sf 4 -rows 4 -clustered -format v2)
QUERIES=(
  "SELECT n_name, r_name FROM nation, region WHERE n_regionkey = r_regionkey ORDER BY n_name LIMIT 8"
  "SELECT o_orderkey, o_totalprice FROM orders WHERE o_totalprice > 1000.0 ORDER BY o_orderkey"
  "SELECT l_shipmode, COUNT(*) AS n, SUM(l_quantity) AS q FROM lineitem, orders WHERE l_orderkey = o_orderkey GROUP BY l_shipmode ORDER BY l_shipmode"
  "SELECT COUNT(*) AS n, MIN(l_quantity) AS lo, MAX(l_quantity) AS hi FROM lineitem"
)
TENANTS=(0 1 2)

workdir=$(mktemp -d)
go build -o "$workdir/skipperd" ./cmd/skipperd
go build -o "$workdir/skipperql" ./cmd/skipperql

daemon=
cleanup() {
  if [ -n "$daemon" ]; then
    kill "$daemon" 2>/dev/null || true
    wait "$daemon" 2>/dev/null || true
    cat "$workdir/skipperd.log"
  fi
  rm -rf "$workdir"
}
trap cleanup EXIT

# boot_daemon ADDR METRICS [skipperd flags...]: start skipperd over the
# smoke dataset. Clients retry the connect, so no sleep is needed.
boot_daemon() {
  ADDR=$1 METRICS=$2
  shift 2
  "$workdir/skipperd" "${DATASET[@]}" -addr "$ADDR" -metrics-addr "$METRICS" "$@" \
    > "$workdir/skipperd.log" 2>&1 &
  daemon=$!
}

# served: every tenant runs the whole statement mix through its own
# session against the daemon; result rows only (no "-- " diagnostics).
served() {
  for tenant in "${TENANTS[@]}"; do
    for q in "${QUERIES[@]}"; do
      echo "== tenant $tenant: $q"
      "$workdir/skipperd" -client -addr "$ADDR" -tenant "$tenant" -c "$q" | grep -v '^--'
    done
  done
}

# oracle [skipperql flags...]: the same transcript from single-shot
# skipperql runs over the identical dataset. With no flags it is the
# reference evaluation (-engine local: no engine, no device, none of the
# daemon's code below the planner); with engine, fleet or fault flags it
# is that configuration's run.
oracle() {
  [ $# -gt 0 ] || set -- -engine local
  for tenant in "${TENANTS[@]}"; do
    for q in "${QUERIES[@]}"; do
      echo "== tenant $tenant: $q"
      "$workdir/skipperql" "${DATASET[@]}" "$@" -c "$q" | grep -v '^--'
    done
  done
}

# scrape FILE: fetch /metrics into $workdir/FILE and make it the file
# check_metric greps. (Scrape to a file, then grep: `curl | grep -q` under
# pipefail races — grep exits at the first match and curl dies on the
# closed pipe.)
scrape() {
  scraped="$workdir/$1"
  curl -sf "http://$METRICS/metrics" > "$scraped"
}

check_metric() {
  grep -Eq "$1" "$scraped" \
    || { echo "metrics scrape missing: $1" >&2; exit 1; }
}

# no_query_lost: every query completed — none failed, expired or was
# rejected.
no_query_lost() {
  check_metric '^skipper_queries_total\{[^}]*outcome="completed"[^}]*\} [1-9]'
  ! grep -Eq '^skipper_queries_total\{[^}]*outcome="(failed|expired|rejected)"[^}]*\} [1-9]' "$scraped" \
    || { echo "queries were lost" >&2; exit 1; }
}
