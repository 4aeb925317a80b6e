#!/usr/bin/env bash
# Builds kbench from this checkout and runs it with the given arguments, e.g.
#
#   bash bench/run.sh --workload paper-burst --seed 42 --seconds 30 --trace 0
#
# Everything the build and the run write stays under .bench_build/ at the
# checkout root: the Go build cache, temporary files, the binary, and the
# traced passes' Chrome trace files.
set -euo pipefail

root=$(cd "$(dirname "$0")/.." && pwd)
build=$root/.bench_build
mkdir -p "$build/tmp" "$build/config"
export GOCACHE=$build/gocache GOPATH=$build/gopath GOTMPDIR=$build/tmp TMPDIR=$build/tmp
# The Go command keeps its env file and telemetry under the user config dir.
export XDG_CONFIG_HOME=$build/config
export GOPROXY=off GOTOOLCHAIN=local GOFLAGS=

(cd "$root/bench" && go build -o "$build/kbench" ./cmd/kbench)
cd "$root"
exec "$build/kbench" -out "$build/kbench-out" "$@"
