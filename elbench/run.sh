#!/usr/bin/env bash
# Builds the elbench binary from this checkout's sources and runs it with the
# given arguments, from the checkout root:
#
#   bash elbench/run.sh --workload train-onehot --seed 1 --seconds 45 --trace 0
#
# Every build product (binary, Go build cache) stays under .bench_build/ in
# the checkout. Outside a full checkout the build fails and so does this
# script, without printing a result.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
out="$root/.bench_build"
mkdir -p "$out/tmp" "$out/config"
# Keep the Go toolchain's caches, temporary files and telemetry in the
# checkout as well.
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" \
	XDG_CONFIG_HOME="$out/config" GOWORK=off
(cd "$here" && go build -buildvcs=false -o "$out/elbench" .)
commit=none
if [ "$(git -C "$root" rev-parse --show-toplevel 2>/dev/null)" = "$root" ]; then
	commit="$(git -C "$root" rev-parse HEAD)"
fi
cd "$root"
exec "$out/elbench" -commit "$commit" "$@"
