#!/usr/bin/env bash
# CI entry point for the benchmark: build, smoke with output checks, full run,
# then compare against the stored baseline. Exits non-zero on a failed check
# or a regression. Not wired into .github/workflows/ci.yml yet.
set -euo pipefail
cd "$(dirname "$0")/.."
mkdir -p .bench_build
go vet ./bench
go build -o .bench_build/flexbench ./bench
.bench_build/flexbench -scale 50
.bench_build/flexbench
.bench_build/flexbench -compare bench/baseline.json bench/out/result.json
