#!/bin/bash
# BENCHMARK.json's command. Builds labbench from source into
# .bench_build/ at the root of the checkout (Go's build cache and
# module path are kept there too, so nothing outside the checkout is
# read or written) and runs it from that root with the arguments given.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(cd "$here/../.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/go-cache" GOPATH="$build/go-path" GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
(cd "$here" && go build -o "$build/labbench" .)
cd "$root"
exec "$build/labbench" "$@"
