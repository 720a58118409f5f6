#!/usr/bin/env bash
# Does the benchmark agree with itself? Runs two sets of RUNS runs per
# workload of the same code (a fresh seed each run, workload order
# reversed in the second set) and checks every end-to-end metric the way
# a regression gate would:
#
#   spread   = (Q3 - Q1) / median over a set's runs   must stay <= bound
#              (setup_s is exempt from this one)
#   drift    = how much worse the second set's median is than the first's
#              must stay <= bound
#
# Bounds come from BENCHMARK.json. The observed table is appended to
# benchmark/README.md. Exit 0 iff every pair agrees.
#
#   benchmark/agree.sh [RUNS [SECONDS]]   (default 10 runs at BENCHMARK.json's
#                                          run_seconds; ~40 minutes)
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
runs="${1:-10}"
seconds="${2:-$(python3 -c "import json,sys; print(json.load(open(sys.argv[1]))['run_seconds'])" "$root/BENCHMARK.json")}"
log="$here/out/agree.jsonl"
mkdir -p "$here/out"
: > "$log"

cd "$root"
for set in 1 2; do
  order="tall_stream burgers_dist era5_ooc serve_mixed"
  [ "$set" = 2 ] && order="serve_mixed era5_ooc burgers_dist tall_stream"
  for i in $(seq 1 "$runs"); do
    seed=$(( (set - 1) * runs + i ))
    for w in $order; do
      line="$("$here/run.sh" --workload "$w" --seed "$seed" --seconds "$seconds" --trace 0 | tail -n 1)"
      printf '{"set": %s, "workload": "%s", "seed": %s, "result": %s}\n' "$set" "$w" "$seed" "$line" >> "$log"
      echo "set $set run $i/$runs $w done" >&2
    done
  done
done

python3 - "$root/BENCHMARK.json" "$log" "$here/README.md" "$seconds" <<'PY'
import json, statistics, sys, datetime

bench = json.load(open(sys.argv[1]))
rows = [json.loads(l) for l in open(sys.argv[2])]
ok = all(r["result"]["correct"] for r in rows)
table = ["| workload | metric | bound | spread 1 | spread 2 | median 1 | median 2 | drift | verdict |",
         "|---|---|---|---|---|---|---|---|---|"]
for w in [x["name"] for x in bench["workloads"]]:
    for m in bench["end_to_end"]:
        med, spread = [], []
        for s in (1, 2):
            v = [r["result"]["metrics"][m["name"]]["value"] for r in rows if r["set"] == s and r["workload"] == w]
            q1, q2, q3 = statistics.quantiles(v, n=4)
            med.append(statistics.median(v))
            spread.append((q3 - q1) / statistics.median(v))
        worse = (med[1] - med[0]) / med[0] if m["better"] == "lower" else (med[0] - med[1]) / med[0]
        good = worse <= m["bound"] and (m["name"] == "setup_s" or max(spread) <= m["bound"])
        ok &= good
        table.append(f"| {w} | {m['name']} | {m['bound']} | {spread[0]:.3f} | {spread[1]:.3f} | "
                     f"{med[0]:.4g} | {med[1]:.4g} | {worse:+.3f} | {'ok' if good else 'DISAGREE'} |")
runs = len(rows) // (2 * len(bench["workloads"]))
stamp = datetime.date.today().isoformat()
text = "\n".join(table)
print(text)
with open(sys.argv[3], "a") as f:
    f.write(f"\n### agree.sh, {stamp}: 2 sets x {runs} runs, {sys.argv[4]} s windows\n\n{text}\n")
sys.exit(0 if ok else 1)
PY
