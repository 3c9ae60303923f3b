#!/usr/bin/env bash
# The docs gate: performance work without written architecture docs does
# not transfer. Every package under internal/ must carry a package comment
# ("// Package <name> ..." in some non-test file), and every (file,
# must-mention) pair of ci/docs.txt must hold — the file exists and
# mentions the string. Fails naming each missing package or pair; run from
# the repository root.
set -euo pipefail
list=${1:-ci/docs.txt}
fail=0

for d in internal/*/; do
  p=$(basename "$d")
  if ! grep -rlq "^// Package $p" "$d" --include='*.go'; then
    echo "missing package comment: $p"; fail=1
  fi
done

while read -r file mention; do
  case "$file" in ''|'#'*) continue ;; esac
  if [ ! -f "$file" ]; then
    echo "missing $file"; fail=1
  elif ! grep -qF -- "$mention" "$file"; then
    echo "$file does not mention $mention"; fail=1
  fi
done < "$list"
[ "$fail" -eq 0 ] && echo "$list: every package is documented and every cross-link holds"
exit "$fail"
