#!/usr/bin/env bash
# Builds goatperf from source and runs it with the given flags, e.g.
#
#   bash bench/run.sh --workload table4 --seed 1 --seconds 15 --trace 0
#
# Run it from the root of a checkout. Everything the build writes (the
# Go build cache, temporary files, the binary) goes under .bench_build/
# in that checkout. The Go toolchain must already be installed: the
# build uses only the standard library and never downloads anything.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
out="$(pwd)/.bench_build"
mkdir -p "$out/cache" "$out/tmp" "$out/gopath" "$out/config"

export GOCACHE="$out/cache"
export GOTMPDIR="$out/tmp"
export GOPATH="$out/gopath"
export GOMODCACHE="$out/gopath/pkg/mod"
export XDG_CONFIG_HOME="$out/config"
export GOENV=off
export GOFLAGS=-buildvcs=false
export GOTOOLCHAIN=local
export GOPROXY=off
export GOSUMDB=off

(cd "$here" && go build -o "$out/goatperf" ./cmd/goatperf)
exec "$out/goatperf" "$@"
