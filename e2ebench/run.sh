#!/usr/bin/env bash
# Builds the end-to-end benchmark from source and runs one workload:
#
#   bash e2ebench/run.sh --workload serve --seed 1 --seconds 20 --trace 0
#
# Run it from anywhere inside a checkout of the repository. The binary,
# Go's build cache and the traced runs' spans all stay inside the
# checkout, under .bench_build.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" GOPATH="$build/gopath"
export XDG_CONFIG_HOME="$build/config" XDG_CACHE_HOME="$build/cache" GOTOOLCHAIN=local
(cd "$root/e2ebench" && go build -o "$build/e2ebench" .)
cd "$root"
exec "$build/e2ebench" "$@"
