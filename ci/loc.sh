#!/usr/bin/env bash
# Prints the Go line counts ROADMAP item 7 is tracked by: non-test lines
# outside benchmark/ (the exit criterion), test lines, and benchmark/.
# Print-only: it never fails the build.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."
lines() { find . -name '*.go' -not -path './.bench_build/*' "$@" -print0 | xargs -0 cat | wc -l; }
echo "non-test Go lines outside benchmark/: $(lines -not -path './benchmark/*' -not -name '*_test.go') (item 7 target: <= 21800)"
echo "test Go lines outside benchmark/:     $(lines -not -path './benchmark/*' -name '*_test.go')"
echo "Go lines in benchmark/:               $(lines -path './benchmark/*')"
