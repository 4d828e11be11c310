#!/usr/bin/env bash
# Builds the benchmark from this checkout's sources and runs it; all
# arguments pass through to the qbench binary. Run from the repository
# root:
#
#   bash qbench/run.sh --workload fed-small --seed 1 --seconds 30 --trace 0
#
# Build output, the Go build cache and temp files, WAL directories and
# result files all stay under .bench_build/ in the checkout.
set -euo pipefail

root=$(pwd)
if [[ ! -f "$root/go.mod" || ! -d "$root/internal/mqss" || ! -f "$root/qbench/go.mod" ]]; then
	echo "qbench: run from the repository root (go.mod, internal/ and qbench/ must be present)" >&2
	exit 1
fi
build="$root/.bench_build"
mkdir -p "$build/home" "$build/tmp"
export TMPDIR="$build/tmp" GOCACHE="$build/gocache" GOPATH="$build/gopath" GOMODCACHE="$build/gopath/pkg/mod"
export HOME="$build/home" XDG_CONFIG_HOME="$build/home/.config" XDG_CACHE_HOME="$build/home/.cache"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off GOTELEMETRY=off CGO_ENABLED=0
(cd "$root/qbench" && go build -trimpath -o "$build/qbench" .)
if [[ -z "${QBENCH_COMMIT:-}" && -e "$root/.git" ]] && command -v git >/dev/null && git -C "$root" rev-parse HEAD >/dev/null 2>&1; then
	QBENCH_COMMIT=$(git -C "$root" rev-parse HEAD)
	export QBENCH_COMMIT
fi
exec "$build/qbench" "$@"
