#!/usr/bin/env bash
# The docs gate: performance work without written architecture docs does
# not transfer. Every package under internal/ must carry a package comment
# ("// Package <name> ..." in some non-test file), and every (file,
# must-mention) pair of ci/docs.txt must hold — the file exists and
# mentions the string. And no tracked .go or .md file may cite a document
# that is not there: an upper-case *.md name (this repository's convention
# for its documents) must exist at the root or beside the citing file —
# CHANGES.md and ISSUE.md excepted, a history and a task statement that may
# name what is gone. Nor may one cite a ROADMAP direction by its number:
# a re-anchor renumbers them, so a citation names the direction instead
# (ROADMAP.md itself, CHANGES.md and bench/ excepted — only a
# benchmark PR may edit bench/, and ROADMAP lists its drift). Fails naming
# each missing package, pair, document or numbered citation; run from the
# repository root.
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
while IFS=: read -r file name; do
  [ -f "$name" ] || [ -f "$(dirname "$file")/$name" ] || { echo "$file cites $name, which does not exist"; fail=1; }
done < <(git grep -oE '(^|[^/A-Za-z0-9_.-])[A-Z][A-Z_]*\.md' -- '*.go' '*.md' ':!CHANGES.md' ':!ISSUE.md' |
  sed -E 's/:[^:A-Z]?([A-Z][A-Z_]*\.md)$/:\1/' | sort -u)
if cites=$(git grep -nE '([Dd]irections?|ROADMAP(\.md)?) [0-9]' -- '*.go' '*.md' \
  ':!ROADMAP.md' ':!CHANGES.md' ':!bench/'); then
  echo "cites a ROADMAP direction by number, not by name:"; echo "$cites"; fail=1
fi
[ "$fail" -eq 0 ] && echo "$list: every package is documented, every cross-link holds, every cited document exists and no direction is cited by number"
exit "$fail"
