#!/usr/bin/env bash
# Builds bench/e2e from source and runs it with the given arguments.
# The binary and every cache of the Go toolchain live in .bench_build/ at
# the root of the checkout, so nothing is read or written outside it.
set -euo pipefail

root=$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)
build="$root/.bench_build"
mkdir -p "$build"

export GOCACHE="$build/gocache"
export GOPATH="$build/gopath"
export GOMODCACHE="$build/gopath/pkg/mod"
export XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local GOFLAGS= GOWORK=off

(cd "$root/bench" && go build -o "$build/e2e" ./e2e)

cd "$root"
exec "$build/e2e" "$@"
