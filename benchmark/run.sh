#!/usr/bin/env bash
# Builds the benchmark from source into .bench_build/ of the checkout and runs
# it from the repository root with the arguments given. The Go build cache,
# and the home directory the go command sees (its env file, telemetry and
# GOPATH live under it), are inside .bench_build/ too, so that the build
# writes nothing outside the checkout.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
mkdir -p .bench_build/home
HOME="$root/.bench_build/home" XDG_CONFIG_HOME= GOCACHE="$root/.bench_build/gocache" \
	GOFLAGS=-mod=readonly GOTOOLCHAIN=local GOWORK=off \
	go build -C benchmark -buildvcs=false -o "$root/.bench_build/disha-benchmark" .
exec "$root/.bench_build/disha-benchmark" "$@"
