#!/usr/bin/env bash
# Builds the benchmark from source into .bench_build/ at the root of the
# checkout and runs it with the arguments given. Every Go cache is kept under
# .bench_build/ too, so a run reads and writes only inside the checkout.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build"

export GOCACHE="$build/go-cache"
export GOPATH="$build/go-path"
export GOMODCACHE="$build/go-mod"
export GOTOOLCHAIN=local
export GOTELEMETRY=off
export XDG_CONFIG_HOME="$build/config"

go build -C "$root/benchmark" -o "$build/megate-benchmark" .
cd "$root"
exec "$build/megate-benchmark" "$@"
