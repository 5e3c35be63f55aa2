#!/usr/bin/env bash
# Builds the benchmark from the sources of the checkout it is run in and
# runs it with the given arguments. Run it from the repository root:
#
#   bash perfbench/run.sh --workload paper_fig5 --seed 1 --seconds 25 --trace 0
#
# The binary and the Go build cache live under .bench_build; the
# benchmark's scratch files under .bench_work and its traces and CPU
# profiles under .bench_out, all in the current directory. The Go
# command's own configuration and telemetry directory is moved there too,
# so nothing is written outside the checkout. No module is fetched: the
# benchmark needs only the standard library and the repository itself.
set -euo pipefail
root=$(pwd)
here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
build="$root/.bench_build"
mkdir -p "$build/config"
export GOCACHE="$build/gocache" XDG_CONFIG_HOME="$build/config" \
	GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off
(cd "$here" && go build -o "$build/perfbench" .) >&2
exec "$build/perfbench" "$@"
