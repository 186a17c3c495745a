#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments.
# Everything the build leaves behind stays in .bench_build/ at the root of
# the checkout: the binary, the Go build and module caches, the
# toolchain's temporary files and its telemetry counters. In a directory
# without the piper module beside it the build fails and nothing is
# printed.
set -euo pipefail
cd "$(dirname "$0")/.."
out="$PWD/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOTMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOWORK=off GOFLAGS=
go build -C benchmark -o "$out/benchmark" . >&2
exec "$out/benchmark" "$@"
