#!/usr/bin/env bash
# Builds perfbench from the sources in this checkout and runs it with the
# given arguments. Run it from the repository root:
#
#   bash perfbench/run.sh --workload week-dynamic --seed 1 --seconds 30 --trace 0
#
# The build cache, the binary and every temporary file stay under
# .perfbench_build/ in the repository root.
set -euo pipefail
out="$(pwd)/.perfbench_build"
mkdir -p "$out/gocache" "$out/gomodcache" "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export GOWORK=off GOFLAGS=-mod=readonly GOTOOLCHAIN=local GOPROXY=off
command -v go >/dev/null || PATH="$PATH:/usr/local/go/bin" # the official install location
go build -C perfbench -o "$out/perfbench" .
exec "$out/perfbench" "$@"
