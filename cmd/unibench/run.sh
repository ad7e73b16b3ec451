#!/usr/bin/env bash
# Builds cmd/unibench from the sources of the checkout it is run in, then
# runs it with the given arguments. Run it from the repository root:
#
#   bash cmd/unibench/run.sh --workload serve_hot --seed 1 --seconds 15 --trace 0
#
# The build cache, temporary build files, the binary and the job spools
# all stay under .bench_build/ at the root. The build never touches the
# network: the benchmark needs nothing outside the checkout.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export GOENV=off GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS="-mod=readonly -buildvcs=false"
(cd "$root/cmd/unibench" && go build -o "$out/unibench.$$" .)
mv -f "$out/unibench.$$" "$out/unibench"
exec "$out/unibench" -workdir "$out" "$@"
