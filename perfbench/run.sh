#!/usr/bin/env bash
# Builds the benchmark and the prefetchd server from the checkout's
# sources, then runs one workload:
#
#   bash perfbench/run.sh --workload fig6-local --seed 1 --seconds 15 --trace 0
#
# Everything the build and the run write stays under .bench_build/ in
# the directory it is started from (the checkout root).
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp" "$out/home"
# The go command's caches, temporary files and local telemetry follow
# these variables, so they too stay in the checkout.
export HOME="$out/home" XDG_CONFIG_HOME="$out/home/.config" XDG_CACHE_HOME="$out/home/.cache" \
	GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" \
	GOPATH="$out/gopath" GOTOOLCHAIN=local GOWORK=off \
	PPROF_TMPDIR="$out/tmp" CGO_ENABLED=0

# A checkout without the simulator's sources has nothing to measure.
if [[ ! -f "$root/go.mod" || ! -d "$root/cmd/prefetchd" ]]; then
	echo "perfbench: $root holds no prefetchsim sources" >&2
	exit 2
fi
(cd "$root/perfbench" && go build -o "$out/perfbench" . && go build -o "$out/prefetchd" prefetchsim/cmd/prefetchd)
exec "$out/perfbench" -root "$root" -prefetchd "$out/prefetchd" -work "$out" "$@"
