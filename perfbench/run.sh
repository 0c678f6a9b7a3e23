#!/usr/bin/env bash
# Builds the repository benchmark from source and runs it. Run from the
# repository root; every argument is passed to the benchmark, e.g.
#
#   bash perfbench/run.sh --workload kvs-pooled --seed 3 --seconds 20 --trace 0
#
# The Go build cache, temporary files and the binary stay under .bench_build
# in the checkout, and the build never touches the network.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOENV=off GOWORK=off \
	GOTOOLCHAIN=local GOPROXY=off GOSUMDB=off GOFLAGS=

(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
