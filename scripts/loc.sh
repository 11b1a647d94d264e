#!/usr/bin/env bash
# Go line counts per package: non-test and test lines for every package
# directory under cmd/, internal/ and bench/, then the totals for cmd/ +
# internal/ (the code the size budget counts) and for bench/.
#
#   scripts/loc.sh
#
# A line is a physical line of a .go file (wc -l); a file is a test file
# when its name ends in _test.go. Prints a table, never fails on a size.
set -euo pipefail
cd "$(dirname "$0")/.."

count() { # count <dir> <find name predicate...>: lines of the matching files directly in dir
	local dir=$1
	shift
	find "$dir" -maxdepth 1 -type f "$@" -print0 | xargs -0 -r cat | wc -l
}

printf '%-28s %9s %9s\n' package non-test test
code=0 tests=0 bcode=0 btests=0
while IFS= read -r dir; do
	n=$(count "$dir" -name '*.go' ! -name '*_test.go')
	t=$(count "$dir" -name '*_test.go')
	[ "$n" -eq 0 ] && [ "$t" -eq 0 ] && continue
	printf '%-28s %9d %9d\n' "$dir" "$n" "$t"
	case $dir in
	bench*) bcode=$((bcode + n)) btests=$((btests + t)) ;;
	*) code=$((code + n)) tests=$((tests + t)) ;;
	esac
done < <(find cmd internal bench -type d | LC_ALL=C sort)
printf '%-28s %9d %9d\n' 'total cmd/ + internal/' "$code" "$tests"
printf '%-28s %9d %9d\n' 'total bench/' "$bcode" "$btests"
