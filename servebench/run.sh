#!/usr/bin/env bash
# Builds bolt-serve, bolt-router and the servebench program from this
# checkout's source into .bench_build, then runs that program with the
# given arguments, e.g.
#
#   bash servebench/run.sh --workload mnist-direct --seed 1 --seconds 15 --trace 0
#   bash servebench/run.sh steady --runs 5 --seconds 15
#
# Run it from the root of the checkout. Every file it writes, the Go
# build cache included, stays under .bench_build.
set -euo pipefail

if [[ ! -f go.mod || ! -d cmd/bolt-serve || ! -d cmd/bolt-router ]]; then
	echo "servebench: run from the root of a bolt checkout (go.mod, cmd/bolt-serve and cmd/bolt-router are missing here)" >&2
	exit 2
fi

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/bin" "$out/gocache" "$out/gopath" "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config"
export GOFLAGS="" GOWORK=off GOTOOLCHAIN=local GOPROXY=off

go build -o "$out/bin/" ./cmd/bolt-serve ./cmd/bolt-router >&2
(cd servebench && go build -o "$out/bin/servebench" .) >&2

exec "$out/bin/servebench" "$@"
