#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it.
# Run from the repository root:
#   bash perfbench/run.sh --workload read-paced --seed 1 --seconds 20 --trace 0
# Everything the build and the run write stays under .bench_build/.
set -euo pipefail

root=$(pwd)
if [[ ! -f "$root/go.mod" || ! -d "$root/internal/serve" || ! -f "$root/perfbench/go.mod" ]]; then
	echo "perfbench: run from the repository root; the program's sources are missing here" >&2
	exit 2
fi
out="$root/.bench_build/perfbench"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
