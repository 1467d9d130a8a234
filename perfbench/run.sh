#!/usr/bin/env bash
# Builds the benchmark from this checkout's sources into .bench_build/ at the
# repository root (Go build cache included) and runs it with the given
# arguments, e.g.
#
#   bash perfbench/run.sh --workload serve-http --seed 1 --seconds 8 --trace 0
#
# It needs no network: the benchmark module imports only the repository
# module (a local replace) and the standard library.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomod" GOWORK=off GOPROXY=off GOTOOLCHAIN=local GOFLAGS=
(cd "$root/perfbench" && go build -o "$build/perfbench" .)
exec "$build/perfbench" "$@"
