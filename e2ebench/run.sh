#!/usr/bin/env bash
# Build i3d and the benchmark from this checkout's sources, then run one
# benchmark run:  bash e2ebench/run.sh --workload NAME --seed N --seconds S --trace 0|1
set -euo pipefail
cd "$(dirname "$0")/.."
# Keep every build artefact inside the checkout (no shared dune cache).
export DUNE_CACHE=disabled
dune build --root . --display quiet bin/i3d.exe e2ebench/main.exe >&2
exec ./_build/default/e2ebench/main.exe "$@"
