#!/usr/bin/env bash
# Builds the benchmark from source and runs it from the repository root,
# passing every argument through (see bench/README.md):
#
#   bash bench/run.sh                                   # all workloads
#   bash bench/run.sh --workload sweep --seed 2 --seconds 10 --trace 0
#
# Everything the toolchain and the benchmark write (build cache, binaries,
# profiles, results) stays under .bench_build/ in the repository.
set -euo pipefail
cd "$(dirname "$0")/.."
out="$PWD/.bench_build"
mkdir -p "$out/tmp" "$out/home"
export HOME="$out/home" XDG_CONFIG_HOME="$out/home/.config" XDG_CACHE_HOME="$out/home/.cache" \
  GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" \
  PPROF_TMPDIR="$out/tmp" GOENV=off GOFLAGS= GOWORK=off GOTOOLCHAIN=local GOPROXY=off
go -C bench build -o "$out/membench" .
exec "$out/membench" "$@"
