#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments,
# from the root of the checkout. The build cache, the binary and the
# traced run's files all stay under .bench_build/ in that root.
set -euo pipefail
cd "$(dirname "$0")/.."
b=$PWD/.bench_build
export GOCACHE=$b/gocache GOPATH=$b/gopath GOMODCACHE=$b/gopath/pkg/mod XDG_CONFIG_HOME=$b/config \
	GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
(cd bench && go build -buildvcs=false -o "$b/bench" .)
exec "$b/bench" "$@"
