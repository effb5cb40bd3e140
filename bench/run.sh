#!/usr/bin/env bash
# Builds the benchmark and the programs it drives (mcserved, mcreport)
# from this source tree, then runs one benchmark workload. Run it from the
# repository root:
#
#   bash bench/run.sh --workload table2 --seed 1 --seconds 20 --trace 0
#
# Everything the build and the run write stays under the build directory
# ($CARGO_TARGET_DIR if set, else .bench_build): the Go build cache, the
# binaries in bin/, the result files in results/ and traced spans in spans/.
set -euo pipefail

out=${CARGO_TARGET_DIR:-.bench_build}
case $out in
/*) ;;
*) out=$PWD/$out ;;
esac
mkdir -p "$out/bin" "$out/tmp"

export GOCACHE=$out/gocache GOMODCACHE=$out/gomodcache GOTMPDIR=$out/tmp
export GOTOOLCHAIN=local GOFLAGS= GOWORK=off

go build -o "$out/bin/" ./cmd/mcserved ./cmd/mcreport
(cd bench && go build -o "$out/bin/mcperf" ./mcperf)
exec "$out/bin/mcperf" -workdir "$out" "$@"
