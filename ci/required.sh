#!/usr/bin/env bash
# Runs every test and benchmark ci/required.txt names and fails on any
# name that did not report: `go test` exits 0 when a -run or -bench
# pattern matches nothing, so a rename would otherwise pass silently.
# One `go test` per package and kind; run from the repository root.
set -euo pipefail
list=${1:-ci/required.txt}
fail=0

# names PKG KIND prints the listed names of one package and kind.
names() { awk -v p="$1" -v k="$2" '$1 == p && $2 == k { print $3 }' "$list"; }
# pattern anchors the top-level names (a sub-benchmark's parent) for -run / -bench.
pattern() { sed 's|/.*||' | sort -u | paste -sd'|' | sed 's/.*/^(&)$/'; }

for pkg in $(awk '!/^#/ && NF == 3 { print $1 }' "$list" | sort -u); do
  if [ -n "$(names "$pkg" test)" ]; then
    out=$(go test -race -v -run "$(names "$pkg" test | pattern)" "$pkg") || { echo "$out"; fail=1; }
    for name in $(names "$pkg" test); do
      grep -q -- "^--- PASS: $name " <<<"$out" || { echo "required test did not pass: $pkg $name"; fail=1; }
    done
  fi
  if [ -n "$(names "$pkg" bench)" ]; then
    out=$(go test -run '^$' -bench "$(names "$pkg" bench | pattern)" -benchtime=1x "$pkg") || { echo "$out"; fail=1; }
    for name in $(names "$pkg" bench); do
      grep -Eq -- "^$name[-/[:space:]]" <<<"$out" || { echo "required benchmark did not run: $pkg $name"; fail=1; }
    done
  fi
done
[ "$fail" -eq 0 ] && echo "ci/required.txt: every listed test passed and every listed benchmark ran"
exit "$fail"
