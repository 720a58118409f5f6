#!/usr/bin/env bash
# Run one matrix of `psvd` commands on <rev> and on the working tree, and
# count the outputs that are not byte-identical.
#
#   scripts/same_outputs.sh <rev>
#
# <rev> is exported with `git archive` into target/same-outputs/<sha>/src
# and built there; the working tree is built in place. Each side generates
# its own Burgers and ERA5 containers, then runs, under PSVD_TREE_FANOUT
# 0/2/4 x PSVD_NUM_THREADS 1/4:
#   svd at ranks 1/3/5/9, svd --low-rank at 3/9, svd --ff 0.95 --r1 12,
#   svd of the ERA5 container at 5/9, validate at 3/9, and pod;
#   then at the benchmark workloads' sizes, where the update's M-long
#   products run the packed engine rather than the reference loops:
#   svd of a 16384x800 Burgers container at --batch 100 --ranks 2, with
#   and without --low-rank, and at --k 24 --batch 8 --ff 0.95 --ranks 1,
#   and svd of a 181x360x96 ERA5 container at --batch 8 --ranks 1;
#   and `psvd reproduce`, whose output carries every paper claim (its
#   stdout and stderr, so a failed claim's report is compared too).
# Every stdout and CSV is compared with `cmp`. Outputs are written to
# relative paths from the output directory, so `wrote …` lines carry no
# side-specific path. Each differing file is listed (a singular-value CSV
# with its largest relative change), then the count.
set -euo pipefail
cd "$(dirname "$0")/.."
rev=${1:?usage: scripts/same_outputs.sh <rev>}
sha=$(git rev-parse --short "$rev")
root=$PWD/target/same-outputs/$sha
rm -rf "$root"
mkdir -p "$root/src"
git archive "$sha" | tar -x -C "$root/src"
(cd "$root/src" && cargo build --release --offline -q -p psvd-cli)
cargo build --release --offline -q -p psvd-cli

run_matrix() { # $1: the psvd binary, $2: the output directory
    local psvd=$1 out=$2 fanout threads cell ranks
    mkdir -p "$out"
    cd "$out"
    "$psvd" generate burgers --grid 2048 --snapshots 200 --out b.ncs >/dev/null
    "$psvd" generate era5 --nlat 46 --nlon 90 --snapshots 96 --out e.ncs >/dev/null
    "$psvd" generate burgers --grid 16384 --snapshots 800 --out bb.ncs >/dev/null
    "$psvd" generate era5 --nlat 181 --nlon 360 --snapshots 96 --out be.ncs >/dev/null
    for fanout in 0 2 4; do
        for threads in 1 4; do
            cell=f$fanout.t$threads
            run() { # $1: the output name, then the psvd arguments
                local name=$1.$cell
                shift
                PSVD_TREE_FANOUT=$fanout PSVD_NUM_THREADS=$threads "$psvd" "$@" >"$name.stdout"
            }
            svd() { # $1: the output name, then the svd arguments
                local name=$1
                shift
                run "$name" svd "$@" --values-out "$name.$cell.values.csv" \
                    --modes-out "$name.$cell.modes.csv"
            }
            for ranks in 1 3 5 9; do svd "svd.r$ranks" b.ncs --k 10 --batch 16 --ranks "$ranks"; done
            for ranks in 3 9; do svd "lowrank.r$ranks" b.ncs --k 10 --batch 16 --ranks "$ranks" --low-rank; done
            svd ff b.ncs --k 10 --batch 16 --ranks 3 --ff 0.95 --r1 12
            for ranks in 5 9; do svd "era5.r$ranks" e.ncs --k 16 --batch 8 --ranks "$ranks"; done
            for ranks in 3 9; do run "validate.r$ranks" validate b.ncs --k 6 --batch 16 --ranks "$ranks"; done
            run pod pod b.ncs --k 6 --modes-out "pod.$cell.modes.csv"
            svd big bb.ncs --k 10 --batch 100 --ranks 2
            svd big.lowrank bb.ncs --k 10 --batch 100 --ranks 2 --low-rank
            svd big.ff bb.ncs --k 24 --batch 8 --ff 0.95 --ranks 1
            svd big.era5 be.ncs --k 16 --batch 8 --ranks 1
            # A failed claim prints the report on stderr and exits 1, as does
            # a side without the verb: keep both streams and go on.
            PSVD_TREE_FANOUT=$fanout PSVD_NUM_THREADS=$threads "$psvd" reproduce \
                >"reproduce.$cell.stdout" 2>&1 || true
        done
    done
    cd - >/dev/null
}

run_matrix "$root/src/target/release/psvd" "$root/out-base"
run_matrix "$PWD/target/release/psvd" "$root/out-head"

total=0
differ=0
for f in $(cd "$root/out-head" && ls -- *.stdout *.csv); do
    total=$((total + 1))
    if cmp -s "$root/out-base/$f" "$root/out-head/$f"; then
        continue
    fi
    differ=$((differ + 1))
    if [[ $f == *.values.csv ]]; then
        paste -d, "$root/out-base/$f" "$root/out-head/$f" | awk -F, -v f="$f" '
            NR > 1 { d = ($4 - $2) / $2; d = d < 0 ? -d : d; if (d > m) m = d }
            END { printf "differs: %s (max relative sigma change %.3g)\n", f, m }'
    else
        echo "differs: $f"
    fi
done
echo "same_outputs: $total outputs vs $sha, $differ differ"
