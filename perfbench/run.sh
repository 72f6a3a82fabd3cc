#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it. Run from
# the repository root:
#
#   bash perfbench/run.sh --workload paper-uniform --seed 1 --seconds 15 --trace 0
#
# Build outputs, the Go build cache, temporary durability directories and
# span files all stay under $CARGO_TARGET_DIR (default .bench_build).
set -euo pipefail

root=$(pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in
/*) ;;
*) out=$root/$out ;;
esac
mkdir -p "$out"

export GOCACHE=$out/gocache GOPATH=$out/gopath GOMODCACHE=$out/gopath/pkg/mod
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off

# The module resolves burtree through "replace burtree => ../", so the
# build fails (and nothing is printed on stdout) without the sources.
(cd "$root/perfbench" && go build -buildvcs=false -o "$out/perfbench" .)

commit=unknown
if [ -d "$root/.git" ]; then
	commit=$(git -C "$root" rev-parse HEAD 2>/dev/null || echo unknown)
	if [ -n "$(git -C "$root" status --porcelain 2>/dev/null)" ]; then
		commit=$commit+dirty
	fi
fi
exec "$out/perfbench" --workdir "$out" --commit "$commit" "$@"
