#!/usr/bin/env bash
# Runs every known-gap test ci/gaps.txt lists (build tag `gap`) and
# requires each to fail by its own assertion: `go test` exits non-zero,
# the test reports --- FAIL and logs a GAP: line. A pass (the gap is
# closed: move its line to ci/required.txt), a name that matched nothing,
# a compile error, a panic or a timeout fails the script, naming the line;
# so does a TestGap* function anywhere in the tree that the list does not
# name. Run from the repository root.
set -euo pipefail
list=${1:-ci/gaps.txt}
fail=0

while read -r pkg name _; do
  status=0
  out=$(go test -tags gap -count=1 -timeout 120s -v -run "^${name}\$" "$pkg" 2>&1) || status=$?
  if [ "$status" -eq 0 ]; then
    if grep -qE -- "^--- PASS: $name " <<<"$out"; then
      echo "gap test passes, so its gap is closed: $pkg $name"
    else
      echo "gap test did not run: $pkg $name"
    fi
    fail=1
  elif grep -qE '^panic: |build failed|setup failed|test timed out' <<<"$out"; then
    echo "$out"; echo "gap test broke before its assertion: $pkg $name"; fail=1
  elif ! grep -qE -- "^--- FAIL: $name " <<<"$out" || ! grep -qE '^ +[A-Za-z0-9_]+_test\.go:[0-9]+: GAP:' <<<"$out"; then
    echo "$out"; echo "gap test failed without a GAP: line: $pkg $name"; fail=1
  fi
done < <(awk '!/^#/ && NF' "$list")

for name in $(git grep -hoE '^func TestGap[A-Za-z0-9_]*' -- '*_test.go' | sed 's/^func //' | sort -u); do
  awk -v n="$name" '!/^#/ && $2 == n { found = 1 } END { exit !found }' "$list" ||
    { echo "gap test not in $list: $name"; fail=1; }
done
[ "$fail" -eq 0 ] && echo "$list: every listed gap test fails with its GAP: line"
exit "$fail"
