#!/usr/bin/env bash
# Builds the end-to-end benchmark from source and runs it, from the
# root of a checkout:
#
#   bash e2ebench/run.sh --workload fresh-data --seed 1 --seconds 20 --trace 0
#
# The Go build cache, temporary files, the binary, the journals a run
# writes and the span dumps of traced runs all stay under .bench_build/
# in the checkout. The first build compiles the standard library too.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/go-build" "$out/tmp" "$out/gopath" "$out/config"
export GOCACHE="$out/go-build" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" \
	GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod" XDG_CONFIG_HOME="$out/config" \
	GOFLAGS=-mod=readonly GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOENV=off

(cd "$root/e2ebench" && go build -o "$out/e2ebench" .) >&2
exec "$out/e2ebench" --out "$out" "$@"
