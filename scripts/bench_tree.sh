#!/usr/bin/env bash
# Merge-tree weak-scaling benchmark (simulated alpha-beta clocks).
#
# Sweeps simulated world sizes — 16 to 256 in quick mode, up to 4096 in
# full mode — running the flat rank-0 gather APMOS against merge trees of
# fanout 4, fanout 16 and depth 2 over the Theta/Aries network model, and
# writes per-series simulated time, message counts, rank-0 ingress, sigma
# deviation and the tracked truncation bound to BENCH_tree.json at the
# repo root. Gated inside the harness: every tree run's sigma deviation
# stays within its tracked per-level truncation bound, and at the largest
# world at least one tree configuration beats the flat gather (the
# engine's own depth-1 plan) by >= 2x simulated time.
#
#   scripts/bench_tree.sh           # quick run (~1 s): worlds 16..256
#   scripts/bench_tree.sh --full    # full run (~10 s): worlds 16..4096
set -euo pipefail
cd "$(dirname "$0")/.."

MODE=--quick
if [[ "${1:-}" == "--full" ]]; then
    MODE=""
fi

# shellcheck disable=SC2086  # $MODE is deliberately word-split (may be empty)
cargo run -p psvd-bench --release --bin tree_scaling -- $MODE --out BENCH_tree.json

echo "bench_tree: OK (BENCH_tree.json written)"
