#!/usr/bin/env bash
# Builds the tree in Release and runs the repository benchmark.
#
#   bench/ledger/run.sh --workload NAME [--seed N] [--seconds S] [--trace 0|1]
#       One workload, one mode; the last line of stdout is the result JSON.
#   bench/ledger/run.sh [--seed N] [--seconds S]
#       Every workload, untraced then traced; the result lines are collected
#       in <build>/ledger/results/all-seed<N>.json.
#
# Run from the repository root. The build tree, scratch files and results go
# under $CARGO_TARGET_DIR (default .bench_build), inside the checkout.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
out="${CARGO_TARGET_DIR:-.bench_build}"
mkdir -p "$out/ledger"
out="$(cd "$out/ledger" && pwd)"
build="$out/build"
log="$out/build.log"
# Compiler temporaries stay inside the checkout too.
export TMPDIR="$out/tmp"
mkdir -p "$TMPDIR"

fail() {
  [ -f "$log" ] && tail -n 30 "$log" >&2
  echo "run.sh: $1" >&2
  exit 2
}

if [ ! -f "$build/build.ninja" ] && [ ! -f "$build/Makefile" ]; then
  generator=()
  if command -v ninja >/dev/null 2>&1; then generator=(-G Ninja); fi
  cmake -S "$here" -B "$build" "${generator[@]}" >"$log" 2>&1 ||
    fail "configure failed (is bench/ledger inside the tegra source tree?)"
fi
cmake --build "$build" -j "$(nproc)" >>"$log" 2>&1 || fail "build failed"

bench=("$build/bin/bench_ledger" --bin-dir "$build/bin" --work-dir "$out/work"
       --out-dir "$out/results" --reference "$here/reference.json")

for arg in "$@"; do
  if [ "$arg" = "--workload" ]; then exec "${bench[@]}" "$@"; fi
done

# Every workload in both modes.
seed=1
args=("$@")
for ((i = 0; i < ${#args[@]}; i++)); do
  if [ "${args[$i]}" = "--seed" ]; then seed="${args[$((i + 1))]}"; fi
done
summary="$out/results/all-seed$seed.json"
status=0
entries=()
for workload in web_fixed_m enterprise_unsup serve_wiki serve_cached; do
  for trace in 0 1; do
    rc=0
    output="$("${bench[@]}" --workload "$workload" --trace "$trace" "$@")" || rc=$?
    printf '%s\n' "$output"
    [ "$rc" -eq 0 ] || status=1
    last="$(printf '%s\n' "$output" | tail -n 1)"
    case "$last" in
      "{"*) entries+=("\"$workload/trace$trace\":$last") ;;
      *) entries+=("\"$workload/trace$trace\":null") ;;
    esac
  done
done
mkdir -p "$out/results"
(IFS=,; printf '{"seed":%s,"runs":{%s}}\n' "$seed" "${entries[*]}") >"$summary"
echo "summary: $summary"
exit "$status"
