#!/usr/bin/env bash
# Builds the benchmark from this checkout's sources and runs it.
# Usage: bash perfbench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
# Run from the repository root. Everything built or written stays under
# .bench_build/ in the current directory.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
if [[ ! -f "$root/go.mod" || ! -f "$root/perfbench/go.mod" ]]; then
	echo "perfbench: run from the repository root (go.mod and perfbench/go.mod needed)" >&2
	exit 2
fi
mkdir -p "$out/gocache" "$out/gopath" "$out/tmp" "$out/home"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=
# The go command keeps its settings and telemetry under the user's home.
(cd "$root/perfbench" && HOME="$out/home" XDG_CONFIG_HOME="$out/home/.config" go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
