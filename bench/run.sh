#!/usr/bin/env bash
# Builds the benchmark and the daemon from the checkout's source, then runs
# one invocation: bash bench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#
# Everything it writes stays inside the checkout: Go's build cache and the
# binaries under .bench_build/, traces under bench/out/. It needs the whole
# repository (the bench module replaces `repro` with ..); in a directory that
# holds only bench/ the build fails and this script exits non-zero.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTOOLCHAIN=local GOPROXY=off
go -C "$root/bench" build -o "$build/craqr-bench" .
exec "$build/craqr-bench" -root "$root" "$@"
