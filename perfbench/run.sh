#!/usr/bin/env bash
# Builds the accesys benchmark from the sources of this checkout and
# runs it. Run from the root of the checkout:
#
#   bash perfbench/run.sh --workload fig4-cold --seed 1 --seconds 20 --trace 0
#
# Everything the build and the runs write stays under .bench_build/ in
# the checkout: the Go build cache, the binary, and the fresh result
# caches each iteration opens.
set -euo pipefail

root=$(pwd)
if [[ ! -f "$root/go.mod" || ! -d "$root/internal/scenario" || ! -d "$root/testdata/golden" ]]; then
	echo "perfbench: run from the root of an accesys checkout (go.mod, internal/, testdata/golden/ not found)" >&2
	exit 2
fi

out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gopath" "$out/config"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config"
export GOENV=off GOTOOLCHAIN=local GOFLAGS= GOWORK=off CGO_ENABLED=0

(cd "$root/perfbench" && go build -trimpath -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
