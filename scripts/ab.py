#!/usr/bin/env python3
"""Time two source trees of collabregen against each other in one
interpreter, on perfbench's workload items:

    python3 scripts/ab.py --base REV|DIR [--head DIR] [--workload W|all]
                          [--rounds R] [--out FILE]

The head is the checkout this script lies in unless ``--head`` names
another tree.  A base REV is extracted with ``git archive REV | tar -x``
into a temporary directory (nothing is written under ``.git``); a base
DIR is used as it is.  Each tree is loaded in turn: ``collabregen`` and
``workloads`` are dropped from ``sys.modules``, ``<tree>/src`` and the
head's ``perfbench/`` go first on ``sys.path``, ``workloads`` is
imported (and with it that tree's ``collabregen``), and both paths are
taken off again.  No ``collabregen`` module imports at call time, so
each tree keeps its own modules and caches.

Every item of both pools of the workload (``all``: of each workload) is
built on both trees and its answer checked once per tree against the
stored answers; a failure exits 1.  Then R rounds are timed.  Each round
shuffles the items (seeded) and times each on both trees back to back,
the side that goes first alternating from item to item.  Per workload
the script prints the ratio (head / base) of the summed per-item
medians, the median per-round ratio of summed times with its quartiles,
the rounds the head won, and then, one line per slot, the ratio of that
slot's summed per-item medians, which shows the slots a change moves.
``--out`` writes both trees' commits, the Python version, the core
count and every sample as JSON.

The host's speed changes from second to second, so pairs of fresh
processes spread widely; back-to-back calls in one process see the same
host state.  On a 2-core host a round of all 1,080 items takes about
10 s and one of the 32 ``curves`` items about 1 s; ``curves`` is the
default workload.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HEAD = Path(__file__).resolve().parent.parent
SHUFFLE_SEED = 1
WORKLOAD_NAMES = ("curves", "repair_sim", "degraded_read")


def load_tree(tree: Path, perfbench: Path):
    """The ``workloads`` module of the head's perfbench on ``tree``'s
    collabregen, imported afresh."""
    for name in list(sys.modules):
        if name == "workloads" or name == "collabregen" or name.startswith("collabregen."):
            del sys.modules[name]
    paths = [str(tree / "src"), str(perfbench)]
    sys.path[:0] = paths
    try:
        import collabregen
        import workloads
    finally:
        for path in paths:
            sys.path.remove(path)
    if not Path(collabregen.__file__).resolve().is_relative_to(tree.resolve()):
        sys.exit(f"ab: collabregen imported from {collabregen.__file__}, not from {tree}")
    return workloads


def commit(tree: Path):
    """The commit checked out at ``tree``, marked ``+dirty`` when its
    ``src/`` has uncommitted changes; None outside a git checkout."""
    def git(*args):
        return subprocess.run(["git", "-C", str(tree), *args], capture_output=True, text=True)

    done = git("rev-parse", "HEAD")
    if done.returncode:
        return None
    dirty = git("status", "--porcelain", "--", "src").stdout
    return done.stdout.strip() + ("+dirty" if dirty else "")


def build_items(workloads, names):
    """{(workload, slot, variant): item} over both pools, every answer
    checked once; the keys of failed answers are returned too."""
    items, failed = {}, []
    for name in names:
        workload = workloads.WORKLOADS[name]()
        stored = workloads.load_reference(name)
        for slot in workload.slots:
            for variant in workloads.all_variants(workload):
                item = workload.build(slot, variant)
                if workload.failures(item, item.call(), stored[slot][variant]):
                    failed.append((name, slot, variant))
                items[name, slot, variant] = item
    return items, failed


def timed(call) -> float:
    start = time.perf_counter()
    call()
    return time.perf_counter() - start


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    return tuple(statistics.quantiles(values, n=4, method="inclusive"))


def summarize(keys, samples, rounds):
    """Summed per-item medians ratio, overall and per slot, per-round
    ratios, rounds won."""
    def median_sum_ratio(mine):
        med = {side: sum(statistics.median(samples[side][k]) for k in mine) for side in samples}
        return med["head"] / med["base"]

    per_round = [sum(samples["head"][k][r] for k in keys)
                 / sum(samples["base"][k][r] for k in keys) for r in range(rounds)]
    q1, q2, q3 = quartiles(per_round)
    return {
        "median_sum_ratio": median_sum_ratio(keys),
        "slot_median_sum_ratios": {slot: median_sum_ratio([k for k in keys if k[1] == slot])
                                   for slot in dict.fromkeys(k[1] for k in keys)},
        "round_ratios": per_round,
        "round_ratio_median": q2,
        "round_ratio_iqr": [q1, q3],
        "head_won": sum(x < 1 for x in per_round),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--base", required=True, help="a git revision or a source tree")
    parser.add_argument("--head", type=Path, default=HEAD, help="a source tree")
    parser.add_argument("--workload", choices=(*WORKLOAD_NAMES, "all"), default="curves")
    parser.add_argument("--rounds", type=int, default=20)
    parser.add_argument("--out", type=Path, help="JSON file of every sample")
    args = parser.parse_args(argv)
    if args.rounds < 1:
        parser.error("--rounds must be at least 1")
    names = WORKLOAD_NAMES if args.workload == "all" else (args.workload,)

    with tempfile.TemporaryDirectory(prefix="ab-base-") as scratch:
        base, base_commit = Path(args.base), None
        if base.is_dir():
            base_commit = commit(base)
        else:
            rev = subprocess.run(
                ["git", "-C", str(HEAD), "rev-parse", "--verify", f"{args.base}^{{commit}}"],
                capture_output=True, text=True,
            )
            if rev.returncode:
                sys.exit(f"ab: --base {args.base} is neither a directory nor a revision")
            base_commit, base = rev.stdout.strip(), Path(scratch)
            archive = subprocess.Popen(["git", "-C", str(HEAD), "archive", base_commit],
                                       stdout=subprocess.PIPE)
            subprocess.run(["tar", "-x", "-C", scratch], stdin=archive.stdout, check=True)
            archive.stdout.close()
            if archive.wait():
                sys.exit(f"ab: git archive {base_commit} failed")
        trees = {"base": base, "head": args.head}
        items = {}
        for side, tree in trees.items():
            workloads = load_tree(tree, args.head / "perfbench")
            items[side], failed = build_items(workloads, names)
            print(f"{side}: {tree}: {len(items[side])} items checked, {len(failed)} failed",
                  flush=True)
            if failed:
                print(f"ab: failed answers on {side}: {failed}", file=sys.stderr)
                return 1

        keys = list(items["head"])
        samples = {side: {k: [] for k in keys} for side in trees}
        head_first = {k: [] for k in keys}
        rng = random.Random(SHUFFLE_SEED)
        for r in range(args.rounds):
            order = rng.sample(keys, len(keys))
            for i, key in enumerate(order):
                first = ("head", "base") if (r + i) % 2 else ("base", "head")
                for side in first:
                    samples[side][key].append(timed(items[side][key].call))
                head_first[key].append(first[0] == "head")

    doc = {
        "base": {"given": args.base, "commit": base_commit},
        "head": {"commit": commit(args.head)},
        "python": platform.python_version(),
        "cores": os.cpu_count(),
        "rounds": args.rounds,
        "shuffle_seed": SHUFFLE_SEED,
        "workloads": {},
    }
    for name in names:
        mine = [k for k in keys if k[0] == name]
        s = summarize(mine, samples, args.rounds)
        q1, q3 = s["round_ratio_iqr"]
        print(f"{name}: {len(mine)} items, {args.rounds} rounds, head / base:")
        print(f"  summed per-item medians  {s['median_sum_ratio']:.3f}")
        print(f"  per-round ratio          {s['round_ratio_median']:.3f} (IQR {q1:.3f}-{q3:.3f})")
        print(f"  rounds the head won      {s['head_won']} of {args.rounds}")
        print("  summed per-item medians, per slot:")
        for slot, ratio in s["slot_median_sum_ratios"].items():
            print(f"    {slot:30} {ratio:.3f}")
        s["samples"] = [
            {"slot": k[1], "variant": k[2], "base": samples["base"][k],
             "head": samples["head"][k], "head_first": head_first[k]}
            for k in mine
        ]
        doc["workloads"][name] = s
    if args.out is not None:
        args.out.write_text(json.dumps(doc, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
