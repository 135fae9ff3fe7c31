#!/usr/bin/env bash
# Builds the benchmark from source into .bench_build/ of the working
# directory (the root of a checkout) and runs it with the given arguments.
# Everything the go command writes — binary, build cache, scratch files,
# its own telemetry counters — is pointed into that directory, so a run
# leaves nothing outside the checkout.
set -euo pipefail
here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
build="$PWD/.bench_build"
mkdir -p "$build/tmp"
GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp" \
	XDG_CONFIG_HOME="$build/config" GOENV=off GOTOOLCHAIN=local GOFLAGS= \
	go build -C "$here" -o "$build/simfs-benchmark" .
exec "$build/simfs-benchmark" "$@"
