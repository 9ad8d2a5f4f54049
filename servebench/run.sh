#!/bin/bash
# Builds the serving benchmark from source and runs it. Run from the root
# of a checkout:
#
#   bash servebench/run.sh --workload read --seed 1 --seconds 16 --trace 0
#
# The binary, the Go build cache and the toolchain's own state stay in
# .bench_build at the root; stores and span files go to .bench_out.
set -euo pipefail
out="$PWD/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod"
export XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOTELEMETRY=off GOPROXY=off GOFLAGS=-buildvcs=false
(cd servebench && go build -o "$out/servebench" .) >&2
exec "$out/servebench" "$@"
