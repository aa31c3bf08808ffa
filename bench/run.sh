#!/usr/bin/env bash
# Builds the benchmark from the source tree it sits in, then runs it from
# the repository root with the given arguments. The binary, the Go build
# cache, the go command's own files and the benchmark's scratch files all
# stay under .bench_build/.
set -euo pipefail
root="$(cd "$(dirname "$0")/.." && pwd)"
cd "$root"
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod" \
    XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOPROXY=off
(cd bench && go build -o "$out/bin/vltbench" .)
exec "$out/bin/vltbench" "$@"
