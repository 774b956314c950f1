#!/usr/bin/env bash
# Builds fixrepair, fixserve and the perfbench program from the source tree
# this script sits in, then runs perfbench with the given arguments:
#
#   bash perfbench/run.sh --workload batch-hosp --seed 1 --seconds 20 --trace 0
#
# Run it from the repository root. Every build product, cache and scratch
# file stays under $CARGO_TARGET_DIR (default .bench_build) in that root.
set -euo pipefail

root=$(pwd)
if [[ ! -f "$root/go.mod" || ! -d "$root/cmd/fixrepair" || ! -d "$root/cmd/fixserve" ]]; then
	echo "perfbench: run from the fixrule repository root (no go.mod, cmd/fixrepair or cmd/fixserve here)" >&2
	exit 2
fi

out=${CARGO_TARGET_DIR:-.bench_build}
[[ "$out" == /* ]] || out="$root/$out"
mkdir -p "$out/bin"

# Keep the toolchain off the network and its cache inside the checkout.
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPROXY=off GOTOOLCHAIN=local GOFLAGS=-buildvcs=false

go build -o "$out/bin/fixrepair" ./cmd/fixrepair
go build -o "$out/bin/fixserve" ./cmd/fixserve
(cd perfbench && go build -o "$out/bin/perfbench" .)

exec "$out/bin/perfbench" -root "$root" -work "$out" "$@"
