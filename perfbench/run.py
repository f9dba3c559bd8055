#!/usr/bin/env python3
"""Benchmark of collabregen: three workloads, their end-to-end metrics,
and a traced run that breaks the time down by layer.

Run from the repository root:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all [--trace 1]

NAME is ``curves``, ``repair_sim`` or ``degraded_read`` (see
BENCHMARK.json for why each is there).  One process runs one workload
on one thread; ``all`` runs each in a fresh interpreter, one after the
other, and prints a table.  A run does a fixed number of rounds of the
workload's slots, sized so that it measures about ``--seconds`` at the
seed version; the same seed gives the same inputs.  Every output is
checked against the seed version's stored answers outside the timed
region.  Times are given in reference seconds, scaled by the host's
speed as calibration slices between the timed calls measure it (see
calibration.py); the line before the result gives the raw throughput.
``setup_s`` is the median of SETUP_SAMPLES setups, each in a fresh
interpreter and scaled by slices taken right after it.  With ``--trace
1`` the untraced pass that ``trace.overhead_frac`` compares with runs in
an interpreter of its own, before the traced pass.  The last line printed is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``.
"""

import time

_START = time.perf_counter()  # setup_s is measured from here

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

from calibration import Calibration  # noqa: E402

SRC = Path(__file__).resolve().parent.parent / "src"
WORKLOAD_NAMES = ("curves", "repair_sim", "degraded_read")
# Seconds one round takes at the seed version on a 2-core machine; the
# run size is derived from them, so later versions repeat the same work.
ROUND_SECONDS = {"curves": 10.0, "repair_sim": 0.85, "degraded_read": 3.0}
MIN_OPS = 100  # so that p90 has at least ten samples beyond it
SETUP_SAMPLES = 9
# The span that is one op of a workload whose timed call performs
# several ops (a sweep solves one point per level): its durations are
# the op latencies, and a calibration slice runs before each.
OP_SPANS = {"curves": "tradeoff.optimize_gamma"}
END_TO_END_UNITS = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_p90_ms": "ms",
    "peak_rss_mb": "MB",
}


def fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def setup(name: str, seed: int, seconds: float):
    """Import the library from src/, build the run's inputs and load the
    stored answers.  Returns (workload, reference, calls, items)."""
    if not (SRC / "collabregen" / "__init__.py").is_file():
        fail(f"no collabregen sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import collabregen
    import workloads

    if Path(collabregen.__file__).resolve().parent != SRC / "collabregen":
        fail(f"collabregen imported from {collabregen.__file__}, not from {SRC}")
    workload = workloads.WORKLOADS[name]()
    try:
        reference = workloads.load_reference(name)
    except FileNotFoundError as exc:
        fail(f"stored answers missing: {exc}")
    per_round = workload.ops_per_slot * len(workload.slots)
    rounds = max(math.ceil(seconds / ROUND_SECONDS[name]), math.ceil(MIN_OPS / per_round))
    calls = workloads.schedule(workload, seed, rounds)
    items = {key: workload.build(*key) for key in dict.fromkeys(calls)}
    return workload, reference, calls, items


def run_calls(workload, reference, calls, items, calibration, op_span=None) -> dict:
    """Time each call after a calibration slice; check its output after
    the clock stops.  ``latencies`` are in reference seconds, one per op,
    each scaled by the two slices around it: an op is a call, or each
    ``op_span`` span inside it, which the pacing slice before each span
    delimits.  ``timed`` is the raw seconds of the calls without the
    slices run inside them; ``ref_s`` is the same in reference seconds,
    each call scaled by the duration-weighted factors of its ops."""
    durations, op_times, windows, groups, attempted, failed = [], [], [], [], 0, 0
    for key in calls:
        item = items[key]
        calibration.slice()
        first = len(calibration.slices)
        mark = len(op_span.durations) if op_span else 0
        start = time.perf_counter()
        raised = False
        try:
            out = item.call()
        except Exception:
            raised = True
            if not failed:
                traceback.print_exc()
        elapsed = time.perf_counter() - start
        durations.append(elapsed - sum(calibration.slices[first:]))
        if op_span:
            op_times.extend(op_span.durations[mark:])
            windows.extend((first + j, first + j + 2) for j in range(len(op_span.durations) - mark))
        else:
            op_times.append(durations[-1])
            windows.append((first - 1, first + 1))
        groups.append(len(op_times))
        if raised:
            bad = item.ops
        else:
            bad = workload.failures(item, out, reference[key[0]][key[1]])
        attempted += item.ops
        failed += bad
    calibration.slice()
    latencies = [t * calibration.factor(lo, hi) for t, (lo, hi) in zip(op_times, windows)]
    ref_s = 0.0
    for d, lo, hi in zip(durations, [0] + groups, groups):
        raw = sum(op_times[lo:hi])
        ref_s += d * (sum(latencies[lo:hi]) / raw if raw else calibration.scale)
    return {"latencies": latencies, "timed": sum(durations), "ref_s": ref_s,
            "attempted": attempted, "failed": failed}


def timed_pass(name, workload, reference, calls, items, names=None):
    """One pass over the calls under a Tracer of the sites whose span is
    in ``names`` (all by default), with a calibration slice before each
    op span.  Returns (run_calls result, tracer)."""
    import tracing

    calibration = Calibration()
    span = OP_SPANS.get(name)
    tracer = tracing.Tracer(names, pace={span: calibration.slice} if span else None)
    with tracer.active():
        result = run_calls(workload, reference, calls, items, calibration, tracer.spans.get(span))
    return result, tracer


def untraced(name, workload, reference, calls, items) -> dict:
    """The untraced pass: only the op span, if any, is timed."""
    span = OP_SPANS.get(name)
    return timed_pass(name, workload, reference, calls, items, (span,) if span else ())[0]


def fresh(args, part: str) -> str:
    """The last line this script prints when run with ``--part part`` in
    a fresh interpreter, which has ended when this returns."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--part", part]
    done = subprocess.run(cmd, capture_output=True, text=True, timeout=60 + 3 * args.seconds)
    if done.returncode != 0:
        sys.stderr.write(done.stderr)
        fail(f"--part {part} in a fresh interpreter failed")
    return done.stdout.strip().splitlines()[-1]


def report(result: dict, metrics: dict, units: dict) -> None:
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
    }))


def run_one(args) -> None:
    workload, reference, calls, items = setup(args.workload, args.seed, args.seconds)
    setup_s = time.perf_counter() - _START
    if args.part == "setup":
        # in reference seconds, by slices taken right after the setup
        calibration = Calibration()
        for _ in range(3):
            calibration.slice()
        print(setup_s * calibration.scale)
        return
    if args.part == "plain":
        result = untraced(args.workload, workload, reference, calls, items)
        print(json.dumps({k: result[k] for k in ("ref_s", "attempted", "failed")}))
        return
    import tracing

    rounds = len(calls) // len(workload.slots)
    if not args.trace:
        samples = [float(fresh(args, "setup")) for _ in range(SETUP_SAMPLES)]
        result = untraced(args.workload, workload, reference, calls, items)
        lat = result["latencies"]
        p50, p90 = tracing.p50_p90(lat)
        scale = result["ref_s"] / result["timed"]
        metrics = {
            "setup_s": statistics.median(samples),
            "ops_per_s": result["attempted"] / result["ref_s"],
            "op_p50_ms": p50 * 1e3,
            "op_p90_ms": p90 * 1e3,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        print(f"# {args.workload} seed={args.seed}: {rounds} rounds, "
              f"{result['attempted']} ops in {result['timed']:.2f}s timed (raw "
              f"ops_per_s={result['attempted'] / result['timed']:.4g}, host "
              f"scale={scale:.4f}); samples: latency "
              f"n={len(lat)}, setup n={len(samples)}; "
              f"failed_frac={result['failed'] / result['attempted']:.4g}")
        report(result, metrics, END_TO_END_UNITS)
        return

    # The untraced pass runs in an interpreter of its own, so that neither
    # pass finds caches the other one warmed.
    plain = json.loads(fresh(args, "plain"))
    traced, tracer = timed_pass(args.workload, workload, reference, calls, items)
    metrics = tracer.metrics()
    metrics["gf.elem_mul_ns"], metrics["gf.int_mul_ns"] = tracing.mul_ns()
    scale = traced["ref_s"] / traced["timed"]
    for name, unit in tracing.PER_LAYER_UNITS.items():
        if unit in ("s", "ms", "ns"):
            metrics[name] *= scale
    traced_s = traced["ref_s"]
    metrics["trace.overhead_frac"] = (traced_s - plain["ref_s"]) / plain["ref_s"]
    both = {k: plain[k] + traced[k] for k in ("attempted", "failed")}
    print(f"# {args.workload} seed={args.seed} traced: {rounds} rounds, "
          f"{traced['attempted']} ops; {traced_s:.2f}s traced, "
          f"{plain['ref_s']:.2f}s untraced in a fresh interpreter (reference "
          f"seconds); host scale={scale:.4f}")
    report(both, metrics, tracing.PER_LAYER_UNITS)


def run_all(args) -> None:
    """Each workload in its own interpreter, one after the other."""
    results = {}
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        done = subprocess.run(cmd, capture_output=True, text=True)
        sys.stderr.write(done.stderr)
        lines = done.stdout.strip().splitlines()
        if done.returncode != 0 or not lines:
            fail(f"workload {name} failed")
        print("\n".join(lines[:-1]))
        results[name] = json.loads(lines[-1])
        res = results[name]
        print(f"{name:14s} {'failed_frac':40s} {res['failed'] / res['attempted']:14.6g}"
              f"  ({res['failed']}/{res['attempted']} ops)")
        for metric, m in res["metrics"].items():
            print(f"{name:14s} {metric:40s} {m['value']:14.6g} {m['unit']}")
    print(json.dumps(results))


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # one part of a run, in a fresh interpreter: the setup alone, or the
    # untraced pass of a traced run
    parser.add_argument("--part", choices=("setup", "plain"), help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if args.workload == "all":
        run_all(args)
    else:
        run_one(args)


if __name__ == "__main__":
    main()
