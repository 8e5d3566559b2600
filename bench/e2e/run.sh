#!/usr/bin/env bash
# Build orion and orion_bench from this checkout, then run one workload
# of the end-to-end benchmark.  From the repository root:
#
#   bash bench/e2e/run.sh --workload W --seed N --seconds S --trace 0|1
#
# --trace 1 adds the traced pass and the engine pass, and the closing
# summary line then carries the per-layer metrics instead of the
# end-to-end ones.  Build products go to .bench_build/, server files,
# spans and the JSON result to .bench_out/.
set -euo pipefail

build=.bench_build
# Keep dune's cache inside the checkout too.
export DUNE_CACHE=disabled XDG_CACHE_HOME="$PWD/$build/cache"
dune build --root . --build-dir "$build" --profile release \
  ./bin/orion.exe ./bench/e2e/orion_bench.exe >&2

args=()
while [ $# -gt 0 ]; do
  case "$1" in
    --trace)
      if [ "${2:-0}" = 1 ]; then args+=(--trace .bench_out/trace); fi
      shift 2
      ;;
    *)
      args+=("$1")
      shift
      ;;
  esac
done

exec "$build/default/bench/e2e/orion_bench.exe" run \
  --orion "$build/default/bin/orion.exe" --workdir .bench_out ${args[@]+"${args[@]}"}
