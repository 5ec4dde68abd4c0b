#!/usr/bin/env bash
# Builds the benchmark of record from the source tree it sits in and runs it:
#
#   bash perfbench/run.sh --workload city-point --seed 1 --seconds 20 --trace 0
#
# Run from the repository root. Everything the build and the run write (Go
# build cache, binary, temp stores, result files, span dumps) stays under
# .bench_build/ in that root. Without the repository's sources next to the
# benchmark the build fails and the script exits non-zero with no result.
set -euo pipefail

root=$(pwd)
if [[ ! -f "$root/go.mod" || ! -d "$root/internal" || ! -f "$root/perfbench/main.go" ]]; then
	echo "perfbench: run from the repository root (needs go.mod, internal/ and perfbench/)" >&2
	exit 2
fi

out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gopath" "$out/home" "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod"
export HOME="$out/home" XDG_CONFIG_HOME="$out/home/.config" TMPDIR="$out/tmp"
export GOFLAGS=-mod=mod GOPROXY=off GOTOOLCHAIN=local GOWORK=off GOTELEMETRY=off

(cd "$root/perfbench" && go build -o "$out/perfbench" .) >&2
exec "$out/perfbench" --out "$out" "$@"
