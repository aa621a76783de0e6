#!/usr/bin/env bash
# Builds the benchmark from this checkout and runs it with the given
# arguments, from the repository root. Build outputs and the Go build
# cache stay inside the checkout, under .bench_build/, and the git lookup
# for the machine stamp does not search above it.
set -euo pipefail
cd "$(dirname "$0")/.."
build="$PWD/.bench_build"
mkdir -p "$build/gocache" "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOMODCACHE="$build/gomod" \
	GOENV=off GOWORK=off GOFLAGS= GOTOOLCHAIN=local \
	GIT_CEILING_DIRECTORIES="$(dirname "$PWD")"
go build -C bench -buildvcs=false -o "$build/cavabench" .
exec "$build/cavabench" "$@"
