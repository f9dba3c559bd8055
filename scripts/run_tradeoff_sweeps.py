#!/usr/bin/env python3
"""Generate the storage/bandwidth trade-off curve families as CSV files.

Writes one file per curve into the output directory:
  * collaboration batch sizes t = 1, 4, 8 on a shared storage grid;
  * selfish attacks (1 selfish live node, up to 1 selfish newcomer per
    batch, 16 or 32 in total) with the collector partition fixed to 32
    single-node groups;
  * the matching polluting attacks.
"""

import argparse
import time
from pathlib import Path

from collabregen.capacity import AdversaryKind, AdversaryProfile, SystemParams
from collabregen.tradeoff import SweepConfig, curve_to_csv, default_alpha_grid, sweep_curve


def write_curve(path: Path, points) -> None:
    path.write_text(curve_to_csv(points))
    print(f"wrote {path} ({len(points)} points)")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--outdir", default="results", help="output directory")
    parser.add_argument("--points", type=int, default=64)
    parser.add_argument("--d", type=int, default=48)
    parser.add_argument("--k", type=int, default=32)
    args = parser.parse_args()

    outdir = Path(args.outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    d, k = args.d, args.k

    def params(t):
        return SystemParams.for_repair_network(k=k, d=d, t=t, B=k)

    start = time.perf_counter()
    shared = default_alpha_grid(params(1), points=args.points)
    for t in (1, 4, 8):
        points = sweep_curve(SweepConfig(params(t), alpha_grid=shared))
        write_curve(outdir / f"collab_t{t}.csv", points)

    p4 = params(4)
    grid = default_alpha_grid(p4, points=args.points)
    write_curve(
        outdir / "attack_baseline_g32.csv",
        sweep_curve(SweepConfig(p4, alpha_grid=grid, fixed_g=k)),
    )
    for kind, tag in ((AdversaryKind.SELFISH, "selfish"), (AdversaryKind.POLLUTING, "polluting")):
        for total in (16, 32):
            adv = AdversaryProfile(kind, among_live=1, per_group_max=1, total=total)
            points = sweep_curve(SweepConfig(p4, adv, alpha_grid=grid, fixed_g=k))
            write_curve(outdir / f"attack_{tag}_{total}.csv", points)
    print(f"done in {time.perf_counter() - start:.1f}s")


if __name__ == "__main__":
    main()
