#!/usr/bin/env bash
# Builds the benchmark and the sepeserve daemon from the checkout's
# source, then runs the benchmark with the given arguments:
#
#   bash benchmark/run.sh --workload table-hot --seed 1 --seconds 10 --trace 0
#
# Run it from the repository root. Every build product, the Go build
# cache included, stays under .bench_build/ in the checkout, and the
# toolchain never reaches the network. Outside a full checkout (no
# go.mod one level above benchmark/) the build fails and the script
# exits non-zero without printing a result.
set -euo pipefail

out="$PWD/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache"
export GOENV=off GOFLAGS= GOPROXY=off GOTOOLCHAIN=local GOWORK=off

(cd benchmark && go build -o "$out/sepebench" . && go build -o "$out/sepeserve" github.com/sepe-go/sepe/cmd/sepeserve)
exec "$out/sepebench" -sepeserve "$out/sepeserve" -spans "$out" "$@"
