#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it with the
# given arguments. Run it from the repository root:
#
#   bash perfbench/run.sh --workload c10k --seed 1 --seconds 20 --trace 0
#
# The binary, the Go build cache, Go's temporary and config files and
# the traced run's span files all stay under .bench_build/.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export XDG_CONFIG_HOME="$out/config" GOENV=off GOTELEMETRY=off
export GOFLAGS= GOWORK=off GOTOOLCHAIN=local GOPROXY=off GO111MODULE=on
(cd "$root/perfbench" && go build -o "$out/perfbench" .)
# The Go runtime hands memory back with MADV_FREE, so the pages stay
# mapped until the kernel needs them: a round does not fault in again
# the heap the previous round's collection gave back. On a virtual
# machine whose host reclaims the guest's freed pages, those faults cost
# whatever the host's memory pressure makes them cost.
export GODEBUG=madvdontneed=0
exec "$out/perfbench" "$@"
