#!/usr/bin/env bash
# Builds the benchmark from the surrounding checkout and runs it.
#
#   bash perfbench/run.sh --append-rate 40 --workload cold-mix --seed 1 --seconds 20 --trace 0
#
# Run from the repository root. Everything the build and the run write
# (Go build cache, binary, WAL scratch, trace files) goes under
# .bench_build/ in the current directory.
set -euo pipefail

root="$(pwd)"
out="$root/.bench_build"
bin="$out/perfbench"
mkdir -p "$out/gocache" "$out/tmp"

export GOCACHE="$out/gocache"
export GOTMPDIR="$out/tmp"
export GOTOOLCHAIN=local
export GOPROXY=off
export GOWORK=off
export CGO_ENABLED=0

# Rebuild only when a Go source or module file is newer than the binary:
# a build leaves megabytes of dirty pages behind, and on a journaling file
# system the benchmark's WAL fsyncs would pay for writing them back.
stale=yes
if [ -x "$bin" ]; then
	stale="$(find "$root" -path "$out" -prune -o \( -name '*.go' -o -name go.mod -o -name go.sum \) -newer "$bin" -print -quit)"
fi
if [ -n "$stale" ]; then
	go -C "$root/perfbench" build -o "$bin.new" . >&2
	mv "$bin.new" "$bin"
	# Flush the build's writes now, before anything is timed.
	sync -f "$bin"
fi
exec "$bin" "$@"
