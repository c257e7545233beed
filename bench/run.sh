#!/usr/bin/env bash
# Builds the benchmark from source into .bench_build/ of the checkout
# this script is in (build cache included, so nothing is written outside
# it) and runs it from the checkout root with the arguments given.
set -euo pipefail
root=$(cd "$(dirname "$0")/.." && pwd)
cd "$root"
build="$root/.bench_build"
mkdir -p "$build"
# The go command's cache, module path, env file and telemetry counters
# all stay in the build directory.
export GOCACHE="$build/gocache" GOPATH="$build/gopath" XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local GOWORK=off
go build -C "$root/bench" -o "$build/draid-bench" .
exec "$build/draid-bench" "$@"
