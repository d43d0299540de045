#!/usr/bin/env bash
# BENCHMARK.json's command: build the benchmark from the checkout's sources,
# then run it with the given arguments. The binary, the Go build cache and the
# go command's own config directory stay under .bench_build/ in the checkout,
# so nothing outside it is written.
set -euo pipefail
cd "$(dirname "$0")/.."
if [ ! -f go.mod ]; then
	echo "bench/run.sh: no go.mod here: the simulator's sources are missing" >&2
	exit 1
fi
mkdir -p .bench_build/config/go/telemetry
# With a fresh config directory the go command would start a detached telemetry
# child that outlives the build; mode "off" keeps it from starting one.
echo off > .bench_build/config/go/telemetry/mode
export GOCACHE="$PWD/.bench_build/gocache" XDG_CONFIG_HOME="$PWD/.bench_build/config" GOTOOLCHAIN=local
go build -o .bench_build/flexbench ./bench
exec .bench_build/flexbench "$@"
