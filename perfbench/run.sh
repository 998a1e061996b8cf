#!/usr/bin/env bash
# Builds the benchmark from the sources of the checkout it is run from and
# runs it, passing every argument through:
#
#   bash perfbench/run.sh --workload p8-parallel-mix --seed 1 --seconds 20 --trace 0
#
# Run it from the repository root. The binary and the Go build caches live
# under ${CARGO_TARGET_DIR:-.bench_build}, so nothing is written outside the
# checkout; the toolchain is never downloaded and no module is fetched.
set -euo pipefail

bench_dir=$(cd "$(dirname "$0")" && pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
mkdir -p "$out"
out=$(cd "$out" && pwd)

export GOCACHE="$out/go-cache" GOPATH="$out/go-path" GOMODCACHE="$out/go-path/pkg/mod"
export XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOPROXY=off GOSUMDB=off GOFLAGS=

go build -C "$bench_dir" -o "$out/perfbench/perfbench" . >&2
exec "$out/perfbench/perfbench" -out "$out/perfbench" "$@"
