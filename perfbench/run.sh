#!/usr/bin/env bash
# Builds the benchmark from the enclosing checkout's sources and runs one
# workload. Run it from the checkout root:
#
#   bash perfbench/run.sh --workload xkg-read --seed 1 --seconds 25 --trace 0
#
# Everything it writes (Go build cache, binary, WAL directories, reports and
# span files) lands under $CARGO_TARGET_DIR, or .bench_build when unset. A
# directory without the engine's sources fails the build, so the script exits
# non-zero without printing a result.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
out="${CARGO_TARGET_DIR:-.bench_build}"
mkdir -p "$out"
out="$(cd "$out" && pwd)"

export GOCACHE="$out/gocache"
export GOMODCACHE="$out/gomodcache"
export XDG_CONFIG_HOME="$out/config"
export GOENV=off GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=mod GOWORK=off

(cd "$here" && go build -o "$out/perfbench" .) >&2
exec "$out/perfbench" --out "$out" "$@"
