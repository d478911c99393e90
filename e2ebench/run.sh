#!/usr/bin/env bash
# Builds the gsql server and the benchmark driver from the checkout in the
# current directory, then runs the driver with the given arguments:
#
#   bash e2ebench/run.sh --workload catalog-1000 --seed 1 --seconds 10 --trace 0
#   bash e2ebench/run.sh compare <results-dir-A> <results-dir-B>
#
# Everything it builds or writes stays under .bench_build/ in the checkout.
set -euo pipefail
if [ ! -f go.mod ] || [ ! -d cmd/gsql ] || [ ! -f e2ebench/go.mod ]; then
	echo "e2ebench: run from the repository root (go.mod, cmd/gsql and e2ebench/ are required)" >&2
	exit 2
fi
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/bin" "$out/gocache" "$out/gotmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/gotmp" GOMODCACHE="$out/gomod"
export GOFLAGS= GOWORK=off GOTOOLCHAIN=local GOPROXY=off
go build -o "$out/bin/gsql" ./cmd/gsql
(cd e2ebench && go build -o "$out/bin/e2ebench" .)
exec "$out/bin/e2ebench" "$@"
