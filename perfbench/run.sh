#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it with the
# given arguments, e.g.
#
#   bash perfbench/run.sh --workload lr-spike --seed 1 --seconds 10 --trace 0
#
# Run it from the repository root. Build outputs (binary, Go build cache,
# temporary files, the go command's own config and telemetry) stay under
# .bench_build in the current directory; the build runs offline against
# the repository's own module.
set -euo pipefail

if [ ! -f go.mod ] || [ ! -d perfbench ]; then
	echo "perfbench: run from the repository root (go.mod and perfbench/ must be present)" >&2
	exit 2
fi

out="$PWD/.bench_build"
mkdir -p "$out/gocache" "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPROXY=off GOWORK=off GOTOOLCHAIN=local
(cd perfbench && XDG_CONFIG_HOME="$out/config" go build -o "$out/perfbench" .) >&2
exec "$out/perfbench" "$@"
