#!/usr/bin/env bash
# loc.sh — non-test, non-generated Go lines per package (the LOC trajectory
# ROADMAP aim 2 asks every PR to report).  benchmarks/ is excluded: it is the
# measuring instrument, not the measured program.
#
#   scripts/loc.sh [dir]      # dir defaults to the repository root
set -euo pipefail
cd "${1:-$(dirname "$0")/..}"

find . -name '*.go' ! -name '*_test.go' ! -path './benchmarks/*' ! -path './.bench_build/*' -print0 |
	while IFS= read -r -d '' f; do
		if grep -q '^// Code generated .* DO NOT EDIT\.$' "$f"; then
			continue
		fi
		printf '%s %d\n' "$(dirname "$f" | sed 's|^\./||; s|^\.$|(root)|')" "$(wc -l <"$f")"
	done |
	awk '{ n[$1] += $2; total += $2 }
	     END { for (p in n) printf "%6d  %s\n", n[p], p; printf "%6d  total\n", total }' |
	sort -k2
