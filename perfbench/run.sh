#!/usr/bin/env bash
# Builds perfbench from this checkout's sources and runs it; every argument
# is passed through (see README.md). Build outputs and the Go build cache
# stay inside the checkout, under .bench_build/.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
out="$(dirname "$here")/.bench_build"
mkdir -p "$out/gocache" "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" GOFLAGS= GOWORK=off GOPROXY=off GOTOOLCHAIN=local
go -C "$here" build -o "$out/perfbench" .
exec "$out/perfbench" "$@"
