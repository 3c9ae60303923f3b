#!/usr/bin/env bash
# Runs every test ci/required.txt names and fails on any name that did not
# report: `go test` exits 0 when a -run pattern matches nothing, so a
# rename would otherwise pass silently. A "test" line runs under -race; a
# "norace" line runs without it, for a test that a -race build skips (one
# that reads the process's allocation counter, or one ~10× slower under
# the detector that changes none of its results). A name may be a subtest
# (Parent/row, as `go test -v` prints it): its parent runs and the row must
# report a pass of its own. One `go test` per package and mode; run from
# the repository root.
set -euo pipefail
list=${1:-ci/required.txt}
fail=0

# names MODE PKG prints the listed test names of one package in one mode.
names() { awk -v m="$1" -v p="$2" '!/^#/ && $2 == m && $1 == p { print $3 }' "$list"; }

if other=$(awk '!/^#/ && NF && !(NF == 3 && ($2 == "test" || $2 == "norace"))' "$list") && [ -n "$other" ]; then
  echo "$list: not a 'package test|norace name' line:"; echo "$other"; fail=1
fi
for mode in test norace; do
  race=-race
  [ "$mode" = norace ] && race=
  for pkg in $(awk -v m="$mode" '!/^#/ && NF == 3 && $2 == m { print $1 }' "$list" | sort -u); do
    out=$(go test $race -v -run "^($(names "$mode" "$pkg" | sed 's|/.*||' | sort -u | paste -sd'|'))\$" "$pkg") || { echo "$out"; fail=1; }
    for name in $(names "$mode" "$pkg"); do
      grep -qE -- "^ *--- PASS: $name " <<<"$out" || { echo "required test did not pass: $pkg $name"; fail=1; }
    done
  done
done
[ "$fail" -eq 0 ] && echo "$list: every listed test passed"
exit "$fail"
