#!/usr/bin/env bash
# Scale-out smoke: the same statements run by skipperql on a single
# device and on device fleets (2 devices with hot replication, 4 devices
# fully replicated) must return byte-identical rows — the placement layer
# may only change I/O patterns, never results. Then a skipperd boot runs a
# two-device fully-replicated fleet whose device 0 permanently crashes
# mid-query: every query must still complete from the replica, served
# rows diffed against the clean single-device oracle, with the
# per-device metric families live on /metrics and no query lost.
source "$(dirname "$0")/smoke_lib.sh"

# The rows skipperql prints are the rows its cluster run returned — not
# a second, local evaluation that no fleet or engine flag could reach.
# Proof by construction: on a join with no ORDER BY the two engines
# legitimately emit the same rows in different orders.
unordered="SELECT l_orderkey, o_orderkey, l_quantity FROM lineitem, orders WHERE l_orderkey = o_orderkey"
for engine in vanilla skipper; do
  "$workdir/skipperql" "${DATASET[@]}" -engine "$engine" -c "$unordered" | grep -v '^--' > "$workdir/$engine.txt"
done
! cmp -s "$workdir/vanilla.txt" "$workdir/skipper.txt" \
  || { echo "both engines printed an unordered join in one order: the rows are not the engines'" >&2; exit 1; }
diff -u <(sort "$workdir/vanilla.txt") <(sort "$workdir/skipper.txt")

# Single-device oracle, then the fleets: identical statements, results
# must not change with the device count or the replication policy.
oracle > "$workdir/one.txt"
oracle -devices 2 -replication hot > "$workdir/two-hot.txt"
oracle -devices 4 -replication full > "$workdir/four-full.txt"
diff -u "$workdir/one.txt" "$workdir/two-hot.txt"
diff -u "$workdir/one.txt" "$workdir/four-full.txt"
echo "scale smoke: ${#QUERIES[@]} results identical on 1, 2 (hot) and 4 (full) devices"

# Failover over the wire: a two-device fully-replicated fleet whose
# device 0 dies 15 s into each query's simulated run and never
# restarts. Every query must complete from the replica.
boot_daemon 127.0.0.1:7890 127.0.0.1:7891 -devices 2 -replication full -crash-at 15s
served > "$workdir/wire.txt"
diff -u "$workdir/one.txt" "$workdir/wire.txt"
echo "scale smoke: $((${#TENANTS[@]} * ${#QUERIES[@]})) results served across the device-0 crash, byte-identical to the single-device oracle"

# The fleet must be real and its metric families live: both devices
# took GETs, the crash actually happened, and no query failed.
scrape metrics.txt
check_metric '^# TYPE skipper_device_gets_total counter$'
check_metric '^skipper_device_gets_total\{[^}]*device="0"[^}]*\} [1-9]'
check_metric '^skipper_device_gets_total\{[^}]*device="1"[^}]*\} [1-9]'
check_metric '^skipper_device_crashes_total\{[^}]*device="0"[^}]*\} [1-9]'
check_metric '^skipper_failovers\{[^}]*tenant="[0-9]+"[^}]*\} [1-9]'
no_query_lost
echo "scale smoke: per-device families exposed on both devices; no query lost"
echo "scale smoke: OK"
