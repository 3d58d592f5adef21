#!/usr/bin/env bash
# Builds the benchmark from source inside the checkout, then runs it:
#
#   bash perfbench/run.sh --workload warm-hot --seed 1 --seconds 20 --trace 0
#
# Run from the repository root. Every build artifact (binary, Go build
# cache, Go config) lands under $CARGO_TARGET_DIR (default .bench_build)
# so nothing outside the checkout is read or written.
set -euo pipefail

out="${CARGO_TARGET_DIR:-.bench_build}"
mkdir -p "$out"
out="$(cd "$out" && pwd)"

export GOCACHE="$out/go-cache"
export GOPATH="$out/gopath"
export XDG_CONFIG_HOME="$out/config"
export GOENV=off
export GOTOOLCHAIN=local
export GOFLAGS=-mod=readonly

go -C perfbench build -o "$out/perfbench" . >&2
exec "$out/perfbench" -workdir "$out" "$@"
