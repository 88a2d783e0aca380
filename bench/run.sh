#!/usr/bin/env bash
# Builds the benchmark from the sources of the checkout it is run in, then
# runs it with the given arguments. Run it from the repository root:
#
#   bash bench/run.sh -workload flow-cold -seed 7
#
# Everything the build and the run write (Go build cache, temporary files,
# the binary) stays under .bench_build/ in the checkout.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomod" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-buildvcs=false

(cd "$root/bench" && go build -o "$out/dacbench" .)
# Not exec: the benchmark reads its children's peak memory (the flow-dp2
# worker), and an exec'd process would inherit the compiler's as well.
"$out/dacbench" "$@"
