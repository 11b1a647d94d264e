#!/usr/bin/env bash
# skipperd chaos smoke: start the daemon with a seeded fault plan —
# transient GET failures, latency stalls, corrupt payloads and a
# crash/restart window on every query's simulated device — run a
# scripted multi-tenant session over the wire, and diff every served
# result against the reference evaluation (skipperql -engine local).
# Surviving faults must never change what a query returns; the fault
# metric families must show the storm actually happened.
source "$(dirname "$0")/smoke_lib.sh"

# The seeded plan mirrors the chaos soak test's: rates high enough to
# fault the small smoke dataset, the per-object cap keeping bounded
# retries convergent, and a crash window long queries cross (down 20 s,
# then back). The retry policy sleeps across the downtime.
boot_daemon 127.0.0.1:7888 127.0.0.1:7889 -prefetch 4 \
  -inflight 2 -tenant-slots 1 -queue-depth 16 \
  -fault-seed 42 -fault-transient 0.4 -fault-stall 0.2 -fault-corrupt 0.45 \
  -fault-cap 3 -crash-at 15s -crash-downtime 20s \
  -retry-attempts 40 -retry-backoff 500ms

# The oracle takes no flags: no faults, no device — chaos against the
# reference, not chaos against chaos.
served > "$workdir/wire.txt"
oracle > "$workdir/direct.txt"
diff -u "$workdir/direct.txt" "$workdir/wire.txt"
echo "chaos smoke: $((${#TENANTS[@]} * ${#QUERIES[@]})) results served through the fault storm, byte-identical to the reference evaluation"

# The storm must have been real, and its metric families live: faults
# injected, transfers retried, corrupt deliveries caught — all visible
# on /metrics with non-zero samples — and every query completed despite it.
scrape metrics.txt
check_metric '^# TYPE skipper_faults_injected counter$'
check_metric '^skipper_faults_injected\{tenant="0"\} [1-9]'
check_metric '^# TYPE skipper_retries counter$'
check_metric '^skipper_retries\{tenant="0"\} [1-9]'
check_metric '^# TYPE skipper_corrupt_segments counter$'
check_metric '^skipper_corrupt_segments\{tenant="0"\} [1-9]'
no_query_lost
echo "chaos smoke: fault families exposed with non-zero counts; no query lost"
echo "chaos smoke: OK"
