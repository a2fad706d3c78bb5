#!/usr/bin/env bash
# Builds the perfbench runner from this checkout's sources and runs it with
# the given flags. Run it from the repository root:
#
#   bash perfbench/run.sh --workload cold-2d --seed 1 --seconds 20 --trace 0
#   bash perfbench/run.sh compare OLD.json NEW.json
#
# The binary, the Go build cache and every file a run writes stay under
# $CARGO_TARGET_DIR (default .bench_build) inside the checkout.
set -euo pipefail
here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in /*) ;; *) out=$(pwd)/$out ;; esac
mkdir -p "$out/tmp" "$out/home"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath" \
	GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" HOME="$out/home" \
	XDG_CONFIG_HOME="$out/home/.config" XDG_CACHE_HOME="$out/home/.cache" \
	GOTOOLCHAIN=local GOFLAGS=
(cd "$here" && go build -o "$out/bin/perfbench" .) >&2
if [ "${1:-}" = compare ]; then
	exec "$out/bin/perfbench" "$@"
fi
exec "$out/bin/perfbench" -dir "$out/perfbench" "$@"
