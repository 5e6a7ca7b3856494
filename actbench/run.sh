#!/usr/bin/env bash
# Builds actbench from this checkout and runs it with the given arguments,
# for example:
#
#   bash actbench/run.sh --workload assess-single --seed 1 --seconds 15 --trace 0
#
# Everything the build writes (the Go build cache, its temporary files and
# the binary) goes to .bench_build/ at the root of the checkout. The build
# works offline: the benchmark imports only the standard library and the
# act module beside it.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOWORK=off GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOENV=off
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config"
(cd "$root/actbench" && go build -o "$out/actbench" .)
cd "$root"
exec "$out/actbench" "$@"
