#!/usr/bin/env python3
"""Time two source trees of collabregen against each other in one
interpreter, on perfbench's workload items:

    python3 scripts/ab.py --base REV|DIR [--head DIR] [--workload W|all]
                          [--rounds R] [--out FILE]

The head is the checkout this script lies in unless ``--head`` names
another tree.  A base REV is extracted with ``git archive REV | tar -x``
into a temporary directory (nothing is written under ``.git``); a base
DIR is used as it is.

The rounds run in two child processes, one after the other: one loads
the base first and times the even rounds, the other loads the head
first and times the odd ones, so R must be at least 2.  A child loads
each tree in turn: ``collabregen`` and ``workloads`` are dropped from
``sys.modules``, ``<tree>/src`` and the head's ``perfbench/`` go first
on ``sys.path``, ``workloads`` is imported (and with it that tree's
``collabregen``), and both paths are taken off again.  No
``collabregen`` module imports at call time, so each tree keeps its own
modules and caches.

In each child every item of both pools of the workload (``all``: of
each workload) is built on both trees and its answer checked once per
tree against the stored answers; a failure exits 1.  Then the child's
rounds are timed.  Round r shuffles the items (seed SHUFFLE_SEED + r)
and times each on both trees back to back, the side that goes first
alternating from item to item.  The two children's samples are pooled.
Per workload the script prints the ratio (head / base) of the summed
per-item medians, the median per-round ratio of summed times with its
quartiles, the median per-round ratio of each load order, the rounds
the head won, and then, one line per slot, the ratio of that slot's
summed per-item medians, which shows the slots a change moves.
``--out`` writes both trees' commits, the Python version, the core
count, each round's load order and, per workload, that summary with
what it is computed from: each item's median over all rounds on both
trees and each round's summed time on both.

The host's speed changes from second to second, so pairs of fresh
processes spread widely; back-to-back calls in one process see the same
host state.  On a 2-core host a round of all 1,080 items takes about
10 s and one of the 32 ``curves`` items about 1 s, and each child
checks every answer once more; ``curves`` is the default workload.
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
# each child's load order; "base first" times the even rounds, "head
# first" the odd ones
ORDERS = {"base first": ("base", "head"), "head first": ("head", "base")}
CHILD = ("import sys; sys.path.insert(0, sys.argv[1]); import ab; "
         "sys.exit(ab.time_rounds(sys.argv[2]))")


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


def summarize(medians, round_sums, round_orders):
    """Summed per-item medians ratio, overall and per slot, per-round
    ratios, overall and per load order, rounds won; from each item's
    {"slot", "base", "head"} medians, each side's list of per-round summed
    times and each round's load order."""
    def median_sum_ratio(mine):
        return sum(m["head"] for m in mine) / sum(m["base"] for m in mine)

    per_round = [h / b for h, b in zip(round_sums["head"], round_sums["base"])]
    q1, q2, q3 = quartiles(per_round)
    return {
        "median_sum_ratio": median_sum_ratio(medians),
        "slot_median_sum_ratios": {slot: median_sum_ratio([m for m in medians if m["slot"] == slot])
                                   for slot in dict.fromkeys(m["slot"] for m in medians)},
        "round_ratios": per_round,
        "round_ratio_median": q2,
        "round_ratio_iqr": [q1, q3],
        "order_round_ratio_medians": {
            order: statistics.median(x for x, o in zip(per_round, round_orders) if o == order)
            for order in ORDERS},
        "head_won": sum(x < 1 for x in per_round),
    }


def time_rounds(job_path) -> int:
    """A child's work, read from the JSON file ``job_path``: load the trees
    in the job's order, check every item's answer on both, time the job's
    rounds and write each item's [key, base times, head times] to the
    job's ``out``; 1 when an answer fails."""
    job = json.loads(Path(job_path).read_text())
    items = {}
    for side in ORDERS[job["order"]]:
        workloads = load_tree(Path(job[side]), Path(job["perfbench"]))
        items[side], failed = build_items(workloads, job["names"])
        print(f"{side}: {job[side]}: {len(items[side])} items checked, {len(failed)} failed",
              flush=True)
        if failed:
            print(f"ab: failed answers on {side}: {failed}", file=sys.stderr)
            return 1

    keys = list(items["head"])
    samples = {side: {k: [] for k in keys} for side in items}
    for r in job["rounds"]:
        order = random.Random(SHUFFLE_SEED + r).sample(keys, len(keys))
        for i, key in enumerate(order):
            first = ("head", "base") if (r + i) % 2 else ("base", "head")
            for side in first:
                samples[side][key].append(timed(items[side][key].call))
    Path(job["out"]).write_text(json.dumps([[k, samples["base"][k], samples["head"][k]]
                                            for k in keys]))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--base", required=True, help="a git revision or a source tree")
    parser.add_argument("--head", type=Path, default=HEAD, help="a source tree")
    parser.add_argument("--workload", choices=(*WORKLOAD_NAMES, "all"), default="curves")
    parser.add_argument("--rounds", type=int, default=20)
    parser.add_argument("--out", type=Path, help="JSON file of the summaries and their inputs")
    args = parser.parse_args(argv)
    if args.rounds < 2:
        parser.error("--rounds must be at least 2, one round per load order")
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
        # samples[side][key][r]: the item's time on that side in round r
        samples = {"base": {}, "head": {}}
        for parity, order in enumerate(ORDERS):
            rounds = list(range(parity, args.rounds, 2))
            job = {"order": order, "rounds": rounds, "names": names, "base": str(base),
                   "head": str(args.head), "perfbench": str(args.head / "perfbench"),
                   "out": os.path.join(scratch, "samples.json")}
            job_path = Path(scratch, "job.json")
            job_path.write_text(json.dumps(job))
            print(f"{order}: rounds {rounds}", flush=True)
            if subprocess.run([sys.executable, "-c", CHILD, str(HEAD / "scripts"),
                               str(job_path)]).returncode:
                return 1
            for key, *times in json.loads(Path(job["out"]).read_text()):
                for side, mine in zip(("base", "head"), times):
                    samples[side].setdefault(tuple(key), {}).update(zip(rounds, mine))

    round_orders = [list(ORDERS)[r % 2] for r in range(args.rounds)]
    doc = {
        "base": {"given": args.base, "commit": base_commit},
        "head": {"commit": commit(args.head)},
        "python": platform.python_version(),
        "cores": os.cpu_count(),
        "rounds": args.rounds,
        "round_orders": round_orders,
        "shuffle_seed": SHUFFLE_SEED,
        "workloads": {},
    }
    for name in names:
        mine = [k for k in samples["head"] if k[0] == name]
        medians = [{"slot": k[1], "variant": k[2],
                    **{side: statistics.median(samples[side][k].values()) for side in samples}}
                   for k in mine]
        round_sums = {side: [sum(samples[side][k][r] for k in mine) for r in range(args.rounds)]
                      for side in samples}
        s = summarize(medians, round_sums, round_orders)
        q1, q3 = s["round_ratio_iqr"]
        by_order = ", ".join(f"{o} {x:.3f}" for o, x in s["order_round_ratio_medians"].items())
        print(f"{name}: {len(mine)} items, {args.rounds} rounds, head / base:")
        print(f"  summed per-item medians  {s['median_sum_ratio']:.3f}")
        print(f"  per-round ratio          {s['round_ratio_median']:.3f} (IQR {q1:.3f}-{q3:.3f})")
        print(f"  per-round ratio by order {by_order}")
        print(f"  rounds the head won      {s['head_won']} of {args.rounds}")
        print("  summed per-item medians, per slot:")
        for slot, ratio in s["slot_median_sum_ratios"].items():
            print(f"    {slot:30} {ratio:.3f}")
        doc["workloads"][name] = {**s, "item_medians": medians, "round_sums": round_sums}
    if args.out is not None:
        args.out.write_text(json.dumps(doc, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
