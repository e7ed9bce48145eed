#!/usr/bin/env bash
# Builds the simulator benchmark from source and runs it with the given
# arguments. Run it from the repository root, for example:
#
#   bash simbench/run.sh --workload cached --seed 1 --seconds 20 --trace 0
#
# The binary and the Go build cache go to $CARGO_TARGET_DIR when it is
# set, else to .bench_build, both inside the checkout.
set -euo pipefail

out=${CARGO_TARGET_DIR:-.bench_build}
mkdir -p "$out"
out=$(cd "$out" && pwd)

# Keep every file the go command writes inside the build directory, and
# never fetch a toolchain or a module.
export GOCACHE="$out/gocache" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOPROXY=off

go -C simbench build -o "$out/simbench" .
exec "$out/simbench" "$@"
