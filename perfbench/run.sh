#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Run from the repository root:
#
#   bash perfbench/run.sh --workload imdb-fuzzy --seed 1 --seconds 15 --trace 0
#
# Everything the build and the run write stays under the build directory
# ($CARGO_TARGET_DIR when set, else .bench_build): the Go build cache, the
# binary, the daemon's data directory and the span files of traced runs.
set -euo pipefail

root=$(pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in
/*) ;;
*) out=$root/$out ;;
esac
mkdir -p "$out/go/cache" "$out/go/tmp" "$out/go/path" "$out/go/home"

export GOCACHE=$out/go/cache GOTMPDIR=$out/go/tmp GOPATH=$out/go/path \
	GOMODCACHE=$out/go/path/mod HOME=$out/go/home XDG_CONFIG_HOME=$out/go/home \
	GOFLAGS=-mod=mod GOPROXY=off GOTOOLCHAIN=local GOWORK=off

(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" --dir "$out/perfbench-run" "$@"
