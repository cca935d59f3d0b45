#!/bin/sh
# Builds the benchmark from this checkout and runs it with the given
# arguments, e.g.
#
#   sh perfbench/run.sh --workload stream --seed 1 --seconds 10 --trace 0
#
# Run from the repository root. The binary, the Go build cache, the
# toolchain's scratch and config directories all go under
# $CARGO_TARGET_DIR (default .bench_build), inside the checkout.
set -eu
root=$(pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in
/*) ;;
*) out=$root/$out ;;
esac
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" \
	XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOPROXY=off GOWORK=off
(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
