#!/usr/bin/env bash
# Builds the served-traffic benchmark from the enclosing checkout and runs it:
#
#   bash _servebench/run.sh --workload pages-discover --seed 1 --seconds 10 --trace 0
#
# Everything the build writes (Go build cache, temporary files, the binary)
# stays under .bench_build/ at the checkout root ($CARGO_TARGET_DIR when set).
# Outside a dime checkout (no module source around _servebench/) it exits
# non-zero before building.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
if [[ ! -f "$root/go.mod" || ! -d "$root/internal/serve" ]]; then
  echo "servebench: no dime module source at $root" >&2
  exit 2
fi
out="${CARGO_TARGET_DIR:-.bench_build}"
case "$out" in /*) ;; *) out="$root/$out" ;; esac
mkdir -p "$out/gocache" "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export GOPATH="$out/gopath" GOFLAGS= GOPROXY=off GOTOOLCHAIN=local GOWORK=off GOENV=off

(cd "$here" && go build -trimpath -o "$out/servebench" .)
exec "$out/servebench" -root "$root" "$@"
