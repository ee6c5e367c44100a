#!/usr/bin/env bash
# Builds locusd and the benchmark from the checkout in the working
# directory, then runs one workload:
#
#   bash perfbench/run.sh --workload serve-bin --seed 1 --seconds 15 --trace 0
#
# Everything the build and the run leave behind goes under .bench_build/
# in the checkout (Go build cache included), so the benchmark reads and
# writes nothing outside it.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/bin" "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath"
export GOTOOLCHAIN=local GOTELEMETRY=off

go build -o "$out/bin/locusd" ./cmd/locusd
(cd "$root/perfbench" && go build -o "$out/bin/perfbench" .)
exec "$out/bin/perfbench" -root "$root" -locusd "$out/bin/locusd" "$@"
