#!/usr/bin/env bash
# psvd-e2e — the repository's benchmark, one command.
#
#   benchmark/run.sh [--seed N] [--seconds S] [--trace]
#       builds release, runs every workload in its own process (untraced;
#       with --trace also the traced run), prints `workload/metric value
#       unit` for every metric plus the host fingerprint, and exits
#       non-zero if any correctness check failed.
#
#   benchmark/run.sh --workload W --seed N --seconds S --trace 0|1
#       one run of one workload; the last line of stdout is the result
#       JSON named in BENCHMARK.json (end-to-end metrics with --trace 0,
#       per-layer metrics with --trace 1); non-zero if a check failed.
#
# Run from the repository root. Refuses to start with any PSVD_* variable
# set: a stray tuning knob would silently change what is measured.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"

for v in $(compgen -e); do
  case "$v" in
    PSVD_*) echo "psvd-e2e: refusing to run with $v set; unset every PSVD_* variable" >&2; exit 2 ;;
  esac
done

# The window length has one home: BENCHMARK.json.
seconds="$(sed -n 's/.*"run_seconds": *\([0-9][0-9]*\).*/\1/p' "$here/../BENCHMARK.json")"
workload="" seed=1 trace=0
while [ $# -gt 0 ]; do
  case "$1" in
    --workload) workload="${2:?}"; shift 2 ;;
    --seed) seed="${2:?}"; shift 2 ;;
    --seconds) seconds="${2:?}"; shift 2 ;;
    --trace)
      if [ "${2:-}" = 0 ] || [ "${2:-}" = 1 ]; then trace="$2"; shift 2; else trace=1; shift; fi ;;
    *) echo "usage: $0 [--workload W] [--seed N] [--seconds S] [--trace [0|1]]" >&2; exit 2 ;;
  esac
done

# Build output goes to stderr: stdout ends with the result line.
cargo build --release --offline --manifest-path "$here/Cargo.toml" >&2
bin="${CARGO_TARGET_DIR:-$here/target}/release/psvd-e2e"
out="$here/out"
# Containers live in a directory of this invocation's own, removed on
# exit even when a run dies; traces are kept.
scratch="$out/run.$$"
mkdir -p "$scratch"
trap 'rm -rf "$scratch"' EXIT

run() { # workload trace
  local status=0
  "$bin" --workload "$1" --seed "$seed" --seconds "$seconds" --trace "$2" --out "$scratch" || status=$?
  if [ "$2" = 1 ] && [ -f "$scratch/$1.trace.json" ]; then mv "$scratch/$1.trace.json" "$out/"; fi
  return "$status"
}

echo "host/nproc $(nproc) count"
echo "host/cpu $(grep -m1 'model name' /proc/cpuinfo 2>/dev/null | cut -d: -f2- | xargs || true)"
echo "host/rustc $(rustc --version)"
echo "host/commit $(git -C "$here" rev-parse --short HEAD 2>/dev/null || echo unknown)"

if [ -n "$workload" ]; then
  run "$workload" "$trace"
  exit
fi

failed=0
for w in tall_stream burgers_dist era5_ooc serve_mixed; do
  for t in $(seq 0 "$trace"); do
    result="$(run "$w" "$t")" || failed=1
    # Everything but the machine-readable last line.
    printf '%s\n' "$result" | sed '$d'
  done
done
if [ "$failed" -ne 0 ]; then
  echo "psvd-e2e: FAILED — a correctness check tripped or a run died" >&2
  exit 1
fi
echo "psvd-e2e: all checks passed"
