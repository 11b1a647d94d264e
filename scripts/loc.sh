#!/usr/bin/env bash
# Go line counts per package: non-test and test lines for every package
# directory under cmd/, internal/ and bench/, then the totals for cmd/ +
# internal/ (the code the size budget counts) and for bench/.
#
#   scripts/loc.sh          # this working tree
#   scripts/loc.sh <ref>    # <ref>'s tree, this working tree and the delta
#
# Given a ref, the script extracts its tree with git archive into a
# temporary directory, as scripts/bench_pairs.sh does, and prints before,
# after and delta per package: the size report of a change is one command.
# A line is a physical line of a .go file (wc -l); a file is a test file
# when its name ends in _test.go. Prints a table, never fails on a size.
set -euo pipefail
cd "$(dirname "$0")/.."

count() { # count <dir> <find name predicate...>: lines of the matching files directly in dir
	local dir=$1
	shift
	find "$dir" -maxdepth 1 -type f "$@" -print0 | xargs -0 -r cat | wc -l
}

lines() { # lines <root>: "package non-test test" per package directory of the tree at root
	(
		cd "$1"
		find cmd internal bench -type d 2>/dev/null | LC_ALL=C sort | while IFS= read -r dir; do
			n=$(count "$dir" -name '*.go' ! -name '*_test.go')
			t=$(count "$dir" -name '*_test.go')
			[ "$n" -eq 0 ] && [ "$t" -eq 0 ] && continue
			echo "$dir $n $t"
		done
	)
}

if [ $# -eq 0 ]; then
	lines . | awk '
		{ printf "%-28s %9d %9d\n", $1, $2, $3 }
		$1 ~ /^bench/ { bn += $2; bt += $3; next }
		{ n += $2; t += $3 }
		BEGIN { printf "%-28s %9s %9s\n", "package", "non-test", "test" }
		END {
			printf "%-28s %9d %9d\n", "total cmd/ + internal/", n, t
			printf "%-28s %9d %9d\n", "total bench/", bn, bt
		}'
	exit 0
fi

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
git archive "$1" | tar -x -C "$tmp"
lines "$tmp" >"$tmp/.before"
lines . >"$tmp/.after"
LC_ALL=C join -a1 -a2 -e0 -o 0,1.2,2.2,1.3,2.3 "$tmp/.before" "$tmp/.after" | awk -v ref="$1" '
	function row(name, b, a, tb, ta) {
		printf "%-28s %9d %9d %+7d %9d %9d %+7d\n", name, b, a, a - b, tb, ta, ta - tb
	}
	BEGIN {
		printf "before: %s, after: the working tree\n", ref
		printf "%-28s %27s %27s\n", "package", "non-test", "test"
		printf "%-28s %9s %9s %7s %9s %9s %7s\n", "", "before", "after", "delta", "before", "after", "delta"
	}
	{ row($1, $2, $3, $4, $5) }
	$1 ~ /^bench/ { bb += $2; ba += $3; btb += $4; bta += $5; next }
	{ b += $2; a += $3; tb += $4; ta += $5 }
	END {
		row("total cmd/ + internal/", b, a, tb, ta)
		row("total bench/", bb, ba, btb, bta)
	}'
