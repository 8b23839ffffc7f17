#!/usr/bin/env bash
# Builds hdovperf from source and runs it from the repository root:
#
#   bash cmd/hdovperf/run.sh --workload cold-random --seed 1 --seconds 8 --trace 0
#
# Every file the build and the run write (Go build cache, binary, page
# files, span files) stays under $CARGO_TARGET_DIR, default .bench_build,
# inside the repository. Flags are passed through unchanged (see README.md).
set -euo pipefail

here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
root=$(cd "$here/../.." && pwd)
cd "$root"

out=${CARGO_TARGET_DIR:-.bench_build}
mkdir -p "$out/hdovperf/tmp" "$out/goconfig"
out=$(cd "$out" && pwd)

# Keep the go command's caches, temp files and telemetry inside $out, and
# never let it fetch a toolchain or a module: the build is offline and
# self-contained.
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/hdovperf/tmp"
export XDG_CONFIG_HOME="$out/goconfig" GOENV=off GOWORK=off
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=mod
export TMPDIR="$out/hdovperf/tmp"

go build -C "$here" -o "$out/hdovperf/hdovperf" .
exec "$out/hdovperf/hdovperf" -dir "$out/hdovperf" "$@"
