#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it, e.g.
#
#   bash perfbench/run.sh --workload ring-composite --seed 1 --seconds 10 --trace 0
#
# Everything the Go toolchain writes (build cache, binary, temporary
# files) stays under .bench_build/ in the checkout.
set -euo pipefail
root="$(cd "$(dirname "$0")/.." && pwd)"
out="$root/.bench_build/perfbench"
mkdir -p "$out/home" "$out/cache" "$out/path" "$out/tmp"
export HOME="$out/home" XDG_CONFIG_HOME="$out/home/.config" XDG_CACHE_HOME="$out/home/.cache"
export GOCACHE="$out/cache" GOPATH="$out/path" GOMODCACHE="$out/path/pkg/mod" GOTMPDIR="$out/tmp"
export GOTOOLCHAIN=local GOFLAGS= GOENV=off GOPROXY=off
(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
