#!/bin/sh
# Builds the benchmark from the sources of the checkout it is run in and
# runs one workload. Run from the repository root:
#
#	bash perfbench/run.sh --workload settle --seed 1 --seconds 25 --trace 0
#
# Everything it builds or writes stays under .bench_build/ in the
# checkout: the Go build cache, the binary, the settlement ledgers and
# the traced run's spans.
set -eu
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-buildvcs=false

commit=unknown
if top=$(git -C "$root" rev-parse --show-toplevel 2>/dev/null) && [ "$top" = "$root" ]; then
	commit=$(git -C "$root" rev-parse HEAD)
fi

(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" --commit "$commit" "$@"
