#!/usr/bin/env bash
# Builds perfbench from the checkout's own sources, then runs it with the
# given arguments. Run it from the repository root:
#
#   bash perfbench/run.sh --workload converge --seed 1 --seconds 30 --trace 0
#
# The binary, the Go build cache and the benchmark's scratch stores all
# live under $CARGO_TARGET_DIR (default .bench_build), so a run writes
# nothing outside the checkout and fetches nothing from the network.
set -euo pipefail
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in
/*) ;;
*) out=$PWD/$out ;;
esac
mkdir -p "$out/gocache" "$out/gotmp" "$out/config" "$out/run"
export GOCACHE=$out/gocache GOTMPDIR=$out/gotmp GOPATH=$out/gopath GOMODCACHE=$out/gopath/pkg/mod \
	XDG_CONFIG_HOME=$out/config GOENV=off GOFLAGS= GOWORK=off GOPROXY=off GOTOOLCHAIN=local
go -C perfbench build -o "$out/perfbench" . >&2
exec "$out/perfbench" --workdir "$out/run" "$@"
