#!/usr/bin/env bash
# Builds the benchmark from source into .bench_build/ at the checkout
# root and runs it from there, so nothing is read or written outside the
# checkout (the Go build cache included).
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOTOOLCHAIN=local
(cd "$root/benchmark" && go build -o "$build/pdmbenchmark" .)
cd "$root"
exec "$build/pdmbenchmark" "$@"
