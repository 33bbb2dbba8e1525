#!/usr/bin/env bash
# Builds the served-path benchmark from the checkout it sits in and runs it:
#
#   bash servedbench/run.sh --workload seed-bitcoin --seed 1 --seconds 10 --trace 0
#
# Everything the build writes (Go build cache, temp files, the binary) stays
# under .bench_build at the checkout root. Outside a full checkout the
# module's `replace flownet => ../` has nothing to point at, so the build
# fails and the script exits non-zero without printing a result.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath"
export GOFLAGS= GOPROXY=off GOTOOLCHAIN=local GOWORK=off
(cd "$root/servedbench" && go build -o "$build/servedbench" .)
cd "$root"
exec "$build/servedbench" "$@"
