#!/usr/bin/env bash
# Builds the benchmark program from source and runs it; arguments are
# passed through (-workload, -seed, -seconds, -trace). Run from the
# repository root. Build outputs and the Go caches stay under the
# build directory ($CARGO_TARGET_DIR, default .bench_build); the
# program writes its reports under .bench_out.
set -euo pipefail

root=$(pwd)
here=$(cd "$(dirname "$0")" && pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in /*) ;; *) out="$root/$out" ;; esac
mkdir -p "$out/home"

export HOME="$out/home" XDG_CONFIG_HOME="$out/home" XDG_CACHE_HOME="$out/home"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath"
export GOTOOLCHAIN=local GOPROXY=off GOTELEMETRY=off

(cd "$here" && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
