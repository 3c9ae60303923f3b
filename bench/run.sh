#!/usr/bin/env bash
# Builds the round benchmark from the checkout's own sources and runs it.
# Everything the Go toolchain writes (build cache, temporaries, the binary)
# stays under .bench_build/ in the checkout.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gotmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/gotmp" GOWORK=off GOTOOLCHAIN=local
go build -C "$here" -o "$out/roundbench" .
cd "$root"
exec "$out/roundbench" "$@"
