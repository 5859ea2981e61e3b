#!/usr/bin/env bash
# Builds the benchmark from source and runs one workload. Run it from
# the repository root:
#
#   bash perfbench/run.sh --workload port-cold --seed 1 --seconds 25 --trace 0
#
# Everything the build writes (binary, Go build cache, traces) stays
# under .bench_build/ in the repository root; CARGO_TARGET_DIR is
# honoured as that directory when set.
set -euo pipefail

root=$(pwd)
if [[ ! -f "$root/perfbench/go.mod" ]]; then
	echo "perfbench: run from the repository root (perfbench/go.mod not found)" >&2
	exit 2
fi
if [[ ! -f "$root/go.mod" ]]; then
	echo "perfbench: $root/go.mod missing: the benchmark builds the program from source and needs the whole repository" >&2
	exit 2
fi

out=${CARGO_TARGET_DIR:-.bench_build}
case "$out" in
/*) ;;
*) out="$root/$out" ;;
esac
mkdir -p "$out"

export GOCACHE="$out/gocache"
export GOPATH="$out/gopath"
export GOTOOLCHAIN=local
export GOPROXY=off
export GOFLAGS=
export GOWORK=off
export GOENV=off

go build -C "$root/perfbench" -o "$out/perfbench" .
exec "$out/perfbench" -out "$out" "$@"
