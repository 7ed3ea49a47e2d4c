#!/usr/bin/env bash
# The benchmark's entry point (BENCHMARK.json's command). It builds the
# benchmark from source inside the checkout and runs it with the
# arguments it was given. Everything the Go toolchain writes — build
# cache, temporary files, module cache — stays under .bench_build/ in the
# checkout.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build/tmp"

export GOCACHE="$build/gocache"
export GOPATH="$build/gopath"
export GOTMPDIR="$build/tmp"
export GOTOOLCHAIN=local
export GOFLAGS=-modcacherw

# bench/ is a module of its own (module repro/bench, replace repro => ../):
# in a directory that holds only the benchmark, this build fails and the
# script exits non-zero without printing a result.
go build -C "$root/bench" -o "$build/bin/bench" .

cd "$root"
exec "$build/bin/bench" "$@"
