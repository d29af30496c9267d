#!/usr/bin/env bash
# Builds the benchmark from this checkout's sources and runs it.
#
#   bash ftbench/run.sh --workload ft-int-clean --seed 1 --seconds 50 --trace 0
#   bash ftbench/run.sh --workload all --seed 1 --seconds 50 --trace 0
#
# Run from the repository root. Everything the build writes (Go build cache,
# temporary files, Go's per-user config) stays under .bench_build in the
# current directory; the benchmark process itself runs at GOMAXPROCS=1, with
# the Go runtime's and the kernel ladder's defaults (GC settings and
# calibration overrides from the caller's environment are dropped).
set -euo pipefail

root=$(pwd)
here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp" "$out/config"

export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config"
export GOPATH="$out/gopath" GOFLAGS=-buildvcs=false GOWORK=off GOTOOLCHAIN=local GOPROXY=off GOENV=off
(cd "$here" && go build -o "$out/ftbench" .)

commit=unknown
if [ -e "$root/.git" ]; then commit=$(git -C "$root" rev-parse HEAD 2>/dev/null || echo unknown); fi
unset GOGC GOMEMLIMIT GODEBUG FTMUL_CALIBRATION
FTBENCH_COMMIT="$commit" GOMAXPROCS=1 exec "$out/ftbench" "$@"
