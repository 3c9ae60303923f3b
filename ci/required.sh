#!/usr/bin/env bash
# Runs every test ci/required.txt names, under -race, and fails on any
# name that did not report: `go test` exits 0 when a -run pattern matches
# nothing, so a rename would otherwise pass silently. A name may be a
# subtest (Parent/row, as `go test -v` prints it): its parent runs and the
# row must report a pass of its own. One `go test` per package; run from
# the repository root.
set -euo pipefail
list=${1:-ci/required.txt}
fail=0

# names PKG prints the listed test names of one package.
names() { awk -v p="$1" '!/^#/ && $1 == p { print $3 }' "$list"; }

if other=$(awk '!/^#/ && NF && !(NF == 3 && $2 == "test")' "$list") && [ -n "$other" ]; then
  echo "$list: not a 'package test name' line:"; echo "$other"; fail=1
fi
for pkg in $(awk '!/^#/ && NF == 3 { print $1 }' "$list" | sort -u); do
  out=$(go test -race -v -run "^($(names "$pkg" | sed 's|/.*||' | sort -u | paste -sd'|'))\$" "$pkg") || { echo "$out"; fail=1; }
  for name in $(names "$pkg"); do
    grep -qE -- "^ *--- PASS: $name " <<<"$out" || { echo "required test did not pass: $pkg $name"; fail=1; }
  done
done
[ "$fail" -eq 0 ] && echo "$list: every listed test passed"
exit "$fail"
