#!/usr/bin/env bash
# Builds the benchmark harness from the sources of the checkout it is
# run in, then runs it.  Run from the root of the checkout:
#
#   bash repobench/run.sh --workload paper-qft --seed 1 --seconds 30 --trace 0
#   bash repobench/run.sh steady --workload fig16-sweep --seeds 1-5
#
# Everything the build and the runs leave behind goes under
# $CARGO_TARGET_DIR (default .bench_build): the Go build cache, the
# harness binary, scratch stores, CPU profiles and span files.
set -euo pipefail

here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in
/*) ;;
*) out=$PWD/$out ;;
esac
mkdir -p "$out/tmp"

export GOCACHE=$out/gocache GOTMPDIR=$out/tmp GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=
(cd "$here" && go build -o "$out/repobench" .)
if [ "${1:-}" = steady ]; then
	shift
	exec "$out/repobench" steady --out "$out" "$@"
fi
exec "$out/repobench" --out "$out" "$@"
