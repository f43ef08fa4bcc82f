#!/usr/bin/env bash
# Builds the benchmark from source into .bench_build/ at the root of the
# checkout (build cache included, so nothing is written outside it) and runs
# it with the given arguments. The benchmark is its own Go module
# (benchmark/go.mod) that replaces the module `splitft` with the checkout it
# sits in; without that checkout the build fails and so does this script.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOTOOLCHAIN=local
(cd "$here" && go build -o "$build/splitft-benchmark" .)
exec "$build/splitft-benchmark" "$@"
