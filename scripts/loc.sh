#!/usr/bin/env bash
# Tracked Rust lines outside benchmark/: per crate and total, split test /
# non-test at a file's first `#[cfg(test)]` (a file under tests/ is all test).
#   scripts/loc.sh          # the working tree's tracked files
#   scripts/loc.sh <rev>    # that revision, the working tree, and the net
set -euo pipefail
cd "$(dirname "$0")/.."
count() { # $1: a revision, or empty for the working tree
    if [[ -n "$1" ]]; then git ls-tree -r --name-only "$1"; else git ls-files; fi |
        grep '\.rs$' | grep -v '^benchmark/' | while read -r f; do
        if [[ -n "$1" ]]; then git show "$1:$f"; else cat "$f"; fi | awk -v f="$f" '
            BEGIN { split(f, p, "/"); g = (p[1] ~ /^(crates|third_party)$/) ? p[1] "/" p[2] : p[1]
                    t = (f ~ /(^|\/)tests\//) }
            /#\[cfg\(test\)\]/ { t = 1 }
            { if (t) test++; else code++ }
            END { print g, code + 0, test + 0 }'
    done | awk '{ c[$1] += $2; t[$1] += $3; C += $2; T += $3 }
        END { for (g in c) printf "%-22s %6d non-test %6d test\n", g, c[g], t[g] | "sort"
              close("sort"); printf "%-22s %6d non-test %6d test %6d total\n", "TOTAL", C, T, C + T }'
}
head=$(count "")
if [[ $# -gt 0 ]]; then
    rev=$(count "$1")
    printf '== %s\n%s\n== working tree\n' "$1" "$rev"
fi
echo "$head"
if [[ $# -gt 0 ]]; then
    paste <(tail -n 1 <<<"$rev") <(tail -n 1 <<<"$head") | awk -v r="$1" '
        { printf "NET vs %s: %+d non-test %+d test %+d total\n", r, $9 - $2, $11 - $4, $13 - $6 }'
fi
