#!/usr/bin/env bash
# Builds perfbench from the checkout it sits in and runs it with the
# given arguments, from the checkout root. Build cache, binary, volume
# files and span dumps all stay under .bench_build/ in the checkout.
set -euo pipefail
root=$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)
cd "$root"
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" XDG_CONFIG_HOME="$out/config" GOFLAGS=-mod=readonly GOPROXY=off GOTOOLCHAIN=local GOENV=off
go -C perfbench build -buildvcs=false -o "$out/perfbench-bin" . >&2
commit=unknown
[ -e "$root/.git" ] && commit=$(git -C "$root" rev-parse HEAD 2>/dev/null || echo unknown)
exec "$out/perfbench-bin" --commit "$commit" "$@"
