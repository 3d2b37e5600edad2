#!/usr/bin/env bash
# Builds the benchmark and the s3crmd daemon from the checkout's source, then
# runs the benchmark with the given arguments. Run it from the repository
# root:
#
#   bash bench/run.sh --workload solve-mid --seed 77 --seconds 25 --trace 0
#
# Everything the build and the run write stays under .bench_build/ in the
# current directory: the Go build cache, the binaries, generated inputs and
# trace files.
set -euo pipefail

root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/bin" "$build/work" "$build/tmp"

export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp" \
  TMPDIR="$build/tmp" XDG_CONFIG_HOME="$build/config" \
  GOTOOLCHAIN=local GOPROXY=off GOWORK=off

go -C bench build -o "$build/bin/s3bench" .
go build -o "$build/bin/s3crmd" ./cmd/s3crmd

commit=$(GIT_CEILING_DIRECTORIES="$(dirname "$root")" git -C "$root" rev-parse --short HEAD 2>/dev/null || echo unknown)
exec "$build/bin/s3bench" -work "$build/work" -daemon "$build/bin/s3crmd" -commit "$commit" "$@"
