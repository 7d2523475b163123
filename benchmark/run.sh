#!/usr/bin/env bash
# Builds the benchmark from this checkout's sources and runs it.
#   bash benchmark/run.sh --workload predict --seed 1 --seconds 15 --trace 0
# Everything it writes (Go build cache, binary, traces, temp dirs) stays
# under .bench_build/ at the root of the checkout.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build/tmp" "$build/config"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOMODCACHE="$build/gopath/pkg/mod" \
  GOTMPDIR="$build/tmp" TMPDIR="$build/tmp" XDG_CONFIG_HOME="$build/config" \
  GOTOOLCHAIN=local GOFLAGS=-mod=mod GOWORK=off GOTELEMETRY=off
(cd "$root/benchmark" && go build -buildvcs=false -o "$build/mlaas-benchmark" .) >&2
sha="$(git -C "$root" rev-parse --short HEAD 2>/dev/null || echo none)"
exec "$build/mlaas-benchmark" -artifacts "$build/artifacts" -git-sha "$sha" "$@"
