#!/usr/bin/env bash
# Builds the benchmark from source and runs it; every argument is passed
# through (see main.go for the flags). Run from the repository root:
#
#   bash perfbench/run.sh --workload text-stream --seed 1 --seconds 10 --trace 0
#
# The Go build cache, the binary, generated corpora and written traces all
# live under .bench_build/perfbench in the working directory, so nothing is
# read or written outside it apart from the Go toolchain itself.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build/perfbench"
mkdir -p "$out/gocache" "$out/gotmp" "$out/gopath"
export GOCACHE="$out/gocache" GOTMPDIR="$out/gotmp" GOPATH="$out/gopath"
export GOTOOLCHAIN=local GOWORK=off GOFLAGS=
(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" --root "$root" --out "$out" "$@"
