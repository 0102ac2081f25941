#!/usr/bin/env bash
# Builds the benchmark from source into .bench_build/ of the current
# directory (the root of a checkout) and runs it there. Everything the
# build and the run write — Go's build cache included — stays inside
# .bench_build/, which .gitignore names.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
build="$PWD/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTOOLCHAIN=local
go build -C "$here" -o "$build/irredbench" .
exec "$build/irredbench" "$@"
