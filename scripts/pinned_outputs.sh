#!/usr/bin/env bash
# Every output whose bytes a rerun must reproduce, written into OUTDIR:
#
#   bash scripts/pinned_outputs.sh OUTDIR CONFIGDIR
#
# Run it from the root of a checkout: it runs that checkout's src/,
# scripts/ and perfbench/.  CONFIGDIR holds one `simulate` config per
# pinned simulation, sim_<name>.json, and each gives OUTDIR/sim_<name>.csv.
# Two runs of one tree give the same OUTDIR byte for byte, so `diff -r` of
# two runs, or of two trees run on the same configs, shows every change.
set -eu
out=$1
configs=$2
mkdir -p "$out"

# cli <file> <arguments>: the output, and any nonzero exit, of the tree in
# the working directory
cli() {
  file=$1
  shift
  PYTHONPATH=src python -m collabregen "$@" > "$file" 2>&1 || echo "exit $?" >> "$file"
}

bounds="--d 8 --k 6 --t 3 --alpha 1 --beta 1/8 --beta-prime 1/8 --partition 2,1,3"
cli "$out/exact_demo.txt" exact-demo
cli "$out/tables.txt" tables
cli "$out/bounds.txt" bounds $bounds
cli "$out/bounds_selfish.txt" bounds $bounds --adversary selfish --L0 1 --per-group 0,1,0
cli "$out/bounds_polluting.txt" bounds $bounds --adversary polluting --B0 1 --per-group 0,1,0
# a selfish budget with a free group count: the worst-case search runs its DP
cli "$out/dp_sweep.csv" tradeoff --d 20 --k 12 --t 3 --adversary selfish \
  --L0 1 --lmax 1 --Ltotal 4 --alpha-points 16
# a fixed group count searched outside the characteristic window (the README's sweep)
cli "$out/free_sweep.csv" tradeoff --d 48 --k 32 --t 4 --fixed-g 32 --free-range \
  --adversary selfish --L0 1 --lmax 1 --Ltotal 32 --alpha-points 16
# four full groups of 3 hold no selfish newcomer: exit 2, "infeasible"
cli "$out/inadmissible_sweep.csv" tradeoff --d 20 --k 12 --t 3 --fixed-g 4 \
  --adversary selfish --L0 1 --lmax 1 --Ltotal 1 --alpha-points 4
# a rational B: B/k has a denominator, so every printed float divides by it
cli "$out/rational_B_sweep.csv" tradeoff --d 48 --k 32 --t 8 --B 7/3 --alpha-points 16
cli "$out/rational_B_polluting_sweep.csv" tradeoff --d 48 --k 32 --t 4 --fixed-g 32 \
  --adversary polluting --B0 1 --bmax 1 --Btotal 16 --B 5/11 --alpha-points 16
# the repr of every CurvePoint of both curves pools: the stored answers
# hold gammas to 1e-3 only, this shows any changed bit
PYTHONPATH=src:perfbench python -c '
import workloads
curves = workloads.Curves()
for slot in curves.slots:
    for variant in workloads.all_variants(curves):
        for point in curves.build(slot, variant).call():
            print(slot, variant, repr(point))
' > "$out/curve_points.txt" 2>&1 || echo "exit $?" >> "$out/curve_points.txt"

# the 64-point figure sweep and the matched pollution runs
PYTHONPATH=src python scripts/run_tradeoff_sweeps.py --outdir "$out/sweep"
PYTHONPATH=src python scripts/run_pollution_sim.py --outdir "$out/pollution"

for config in "$configs"/sim_*.json; do
  PYTHONPATH=src python -m collabregen simulate --config "$config" --out "$out/$(basename "$config" .json).csv"
done
