#!/usr/bin/env bash
# Builds the benchmark from source and runs it from the checkout root, keeping
# every file the build writes (Go build and module caches, compiler work
# directories, toolchain telemetry counters) inside the checkout.
# BENCHMARK.json's command is "bash bench/run.sh"; arguments are passed
# through to the binary.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."
build="$PWD/.bench_build"
mkdir -p "$build/home" "$build/tmp"
HOME="$build/home" XDG_CONFIG_HOME="$build/home/.config" \
GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" GOPATH="$build/gopath" \
GOTMPDIR="$build/tmp" GOFLAGS=-buildvcs=false GOWORK=off \
	go build -C bench -o "$build/eswitch-bench" .
exec "$build/eswitch-bench" "$@"
