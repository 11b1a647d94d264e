#!/usr/bin/env bash
# Paired before/after runs of the repository benchmark.
#
#   scripts/bench_pairs.sh <parent-ref> [pairs] [bench args...]
#
# Extracts <parent-ref> (git archive) into a temporary directory and runs
# `pairs` (default 10) pairs of `bash bench/run.sh [bench args...]`, one run
# from that copy (parent) and one from this working tree (change),
# alternating which side goes first. Each side builds its own benchmark
# binary from its own source. The bench args choose the pass: `--trace 0`
# (the default when they name none) pairs the end-to-end metrics, `--trace
# 1` every per-layer metric on the result line — the wall-clock ones
# (ops_per_s, op_wall_p50_ms, *.self_ms_per_op, the vtime and csd probes)
# included. Prints, per workload x metric, each side's median [q1-q3]
# (quartiles by linear interpolation), change/parent, the pairs the change
# won and a verdict, as the markdown table docs/reports/ uses. A lower value
# wins unless BENCHMARK.json marks the metric `better: higher` (the table
# says so); ties count for neither. The verdict is the acceptance rule's:
# `better` when the change won at least nine pairs in ten and its median is
# past the parent's by more than the parent's q3-q1; `WORSE` when an
# end-to-end metric's change median is past the parent's by more than its
# BENCHMARK.json `bound` (a fraction of the parent median, in the metric's
# losing direction). Otherwise, when every run of each side read one value
# — an exact count, such as GETs, switches or virtual seconds — it is `same`
# if the two values are equal and `CHANGED` if not; else `within bound` for
# an end-to-end row and `–` for a per-layer one. A `result digest` row per
# workload follows, read from each run's `== ... digest <hex>` header: `same`
# when every run of both sides printed one digest, `CHANGED` otherwise. The
# verdict is printed, never acted on. Fails if any run does.
#
#   scripts/bench_pairs.sh HEAD~1 10 --seed 1
#   scripts/bench_pairs.sh HEAD~1 10 --seed 1 --trace 1 --workload serve-micro
#   scripts/bench_pairs.sh HEAD 1 -scale tiny -seconds 0.1     # CI smoke
set -euo pipefail

if [ $# -lt 1 ]; then
	sed -n '2,33p' "$0" >&2
	exit 2
fi
ref=$1
shift
pairs=10
if [[ ${1:-} =~ ^[0-9]+$ ]]; then
	pairs=$1
	shift
fi

traced=0
for arg in "$@"; do
	case $arg in -trace | --trace | -trace=* | --trace=*) traced=1 ;; esac
done
if ((!traced)); then
	set -- --trace 0 "$@"
fi

root=$(git rev-parse --show-toplevel)
tmp=$(mktemp -d)
parent="$tmp/parent"
trap 'rm -rf "$tmp"' EXIT
mkdir "$parent"
git -C "$root" archive "$ref" | tar -x -C "$parent"

# run <side> <dir> <pair> [bench args...]: one benchmark run; appends
# "workload metric side pair value" lines to the sample file.
run() {
	local side=$1 dir=$2 pair=$3
	shift 3
	echo "pair $pair/$pairs: $side" >&2
	# The benchmark names the workload on stderr, then prints its result
	# line on stdout: read both in order and pass every line through to
	# stderr, so a saved log keeps each run's result line.
	(cd "$dir" && bash bench/run.sh "$@" 2>&1) | awk -v side="$side" -v pair="$pair" '
		/^== / {
			workload = $2
			digest = match($0, /digest [0-9a-f]+$/) ? substr($0, RSTART + 7) : "-"
			print workload, "result_digest", side, pair, digest
		}
		{ print > "/dev/stderr" }
		/^\{"correct"/ {
			s = $0
			while (match(s, /"[A-Za-z0-9_.]+":\{"value":[-+0-9.eE]+/)) {
				tok = substr(s, RSTART, RLENGTH)
				s = substr(s, RSTART + RLENGTH)
				name = tok; sub(/^"/, "", name); sub(/".*/, "", name)
				value = tok; sub(/.*:/, "", value)
				print workload, name, side, pair, value
			}
		}' >>"$tmp/samples"
}

for ((pair = 1; pair <= pairs; pair++)); do
	if ((pair % 2)); then
		run parent "$parent" "$pair" "$@"
		run change "$root" "$pair" "$@"
	else
		run change "$root" "$pair" "$@"
		run parent "$parent" "$pair" "$@"
	fi
done

# What BENCHMARK.json says of its metrics comes first — "higher <name>"
# for a metric marked `better: higher`, "bound <name> <fraction>" for an
# end-to-end one — then the samples.
awk -v pairs="$pairs" '
	function quantile(a, n, p,    pos, lo) {
		pos = (n - 1) * p
		lo = int(pos)
		if (lo + 1 >= n) return a[n - 1]
		return a[lo] + (pos - lo) * (a[lo + 1] - a[lo])
	}
	# summary sorts the samples of one side and renders "median [q1–q3]";
	# one[side] says whether they are all one value.
	function summary(key, side,    n, i, j, t, a) {
		n = 0
		for (i = 1; i <= pairs; i++) if ((key, side, i) in v) a[n++] = v[key, side, i]
		for (i = 1; i < n; i++) for (j = i; j > 0 && a[j - 1] > a[j]; j--) { t = a[j]; a[j] = a[j - 1]; a[j - 1] = t }
		one[side] = n > 0 && a[0] == a[n - 1]
		med[side] = quantile(a, n, 0.5)
		q1[side] = quantile(a, n, 0.25)
		q3[side] = quantile(a, n, 0.75)
		return sprintf("%.6g [%.6g–%.6g]", med[side], q1[side], q3[side])
	}
	$1 == "higher" { higher[$2] = 1; next }
	$1 == "bound" { bound[$2] = $3; next }
	# digest[w] is the first digest of workload w, or "" once two differ;
	# shown[w, side] what one side printed; printed[w, side, pair] that
	# the run printed a header.
	$2 == "result_digest" {
		if (!($1 in digest)) { digest[$1] = $5; dorder[ndig++] = $1 }
		if ($5 == "-" || $5 != digest[$1]) digest[$1] = ""
		if (!(($1, $3) in shown)) shown[$1, $3] = $5
		if (shown[$1, $3] != $5) shown[$1, $3] = "several"
		printed[$1, $3, $4] = 1
		next
	}
	{
		key = $1 " | " $2
		if ($2 in higher) key = key " (higher wins)"
		if (!(key in seen)) { seen[key] = 1; order[nkeys++] = key; metric[key] = $2 }
		v[key, $3, $4] = $5
	}
	END {
		print "| workload | metric | parent median [q1–q3] | change median [q1–q3] | change/parent | pairs won | verdict |"
		print "|---|---|---|---|---|---|---|"
		for (k = 0; k < nkeys; k++) {
			key = order[k]
			won = 0
			up = key ~ /higher wins/
			for (i = 1; i <= pairs; i++) {
				d = v[key, "change", i] - v[key, "parent", i]
				if (up ? d > 0 : d < 0) won++
			}
			p = summary(key, "parent")
			c = summary(key, "change")
			ratio = med["parent"] == 0 ? "n/a" : sprintf("%.3f", med["change"] / med["parent"])
			gain = up ? med["change"] - med["parent"] : med["parent"] - med["change"]
			verdict = "–"
			if (metric[key] in bound) verdict = "within bound"
			if (one["parent"] && one["change"]) verdict = med["change"] == med["parent"] ? "same" : "CHANGED"
			if (metric[key] in bound && -gain > bound[metric[key]] * med["parent"]) verdict = "WORSE"
			if (10 * won >= 9 * pairs && gain > q3["parent"] - q1["parent"]) verdict = "better"
			printf "| %s | %s | %s | %s | %d/%d | %s |\n", key, p, c, ratio, won, pairs, verdict
		}
		for (k = 0; k < ndig; k++) {
			w = dorder[k]
			verdict = digest[w] == "" ? "CHANGED" : "same"
			for (i = 1; i <= pairs; i++)
				if (!((w, "parent", i) in printed) || !((w, "change", i) in printed)) verdict = "CHANGED"
			printf "| %s | result digest | %s | %s | – | – | %s |\n", w, shown[w, "parent"], shown[w, "change"], verdict
		}
	}' <(awk '
		/"name":/ { name = $2; gsub(/[",]/, "", name) }
		/"better": *"higher"/ { print "higher", name }
		/"bound":/ { b = $2; gsub(/[",]/, "", b); print "bound", name, b }' "$root/BENCHMARK.json") "$tmp/samples"
