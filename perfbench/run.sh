#!/usr/bin/env bash
# Builds the onServe benchmark from source and runs it:
#   bash perfbench/run.sh --workload warm-small --seed 1 --seconds 30 --trace 0
# Run from the repository root. Every build and run artefact stays under
# .bench_build/ in the current directory.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath" \
	GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" GOTOOLCHAIN=local GOFLAGS= GOWORK=off GOENV=off
(cd "$root/perfbench" && go build -o "$out/perfbench" .) >&2
exec "$out/perfbench" "$@"
