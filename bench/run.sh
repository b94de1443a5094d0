#!/usr/bin/env bash
# Builds the repository benchmark from the checkout it sits in and runs
# it with the given arguments:
#
#   bash bench/run.sh --workload serve_head --seed 1 --seconds 10 --trace 0
#
# Every build product (compiler cache, binary, per-run temp files and
# span dumps) goes under .bench_build/ at the checkout root. Outside a
# full checkout the build fails and the script exits non-zero.
set -euo pipefail
root="$(cd "$(dirname "$0")/.." && pwd)"
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod"
export GOTOOLCHAIN=local GOPROXY=off GOTELEMETRY=off GOWORK=off GOFLAGS=
(cd "$root/bench" && go build -o "$out/kqrbench" .)
cd "$root"
exec "$out/kqrbench" "$@"
