#!/usr/bin/env bash
# Builds perfbench from source in this checkout and runs it. Run from the
# repository root:
#
#   bash perfbench/run.sh --workload engine-resident-2w --seed 1 --seconds 10 --trace 0
#   bash perfbench/run.sh --workload all --seed 1 --seconds 10
#
# Everything the build and the runs write (binary, Go build cache, run
# records, spans) goes under $CARGO_TARGET_DIR, default .bench_build.
set -euo pipefail
out="${CARGO_TARGET_DIR:-.bench_build}"
mkdir -p "$out"
out="$(cd "$out" && pwd)"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod"
# The go command keeps telemetry under the user config directory; point
# that into the build directory too.
export XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=
mkdir -p "$GOTMPDIR"
go build -C perfbench -o "$out/perfbench" .
exec "$out/perfbench" -out "$out" "$@"
