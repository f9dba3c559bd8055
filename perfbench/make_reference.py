#!/usr/bin/env python3
"""Record the answers of the current source tree for every input of the
benchmark, into perfbench/reference/<workload>.json.

The stored answers are the seed version's; rerun this only to rebuild
the benchmark on purpose, never to make a changed program pass.  Run
from the repository root:

    python3 perfbench/make_reference.py [--workload NAME]
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import workloads  # noqa: E402


def record(workload) -> dict:
    """The answer of every variant of every slot, both pools."""
    answers = {}
    for slot in workload.slots:
        answers[slot] = []
        start = time.perf_counter()
        for variant in workloads.all_variants(workload):
            item = workload.build(slot, variant)
            out = item.call()
            answer = workload.answer(item, out)
            if workload.failures(item, out, answer):
                raise SystemExit(f"{slot}/{variant}: the output fails its own check")
            answers[slot].append(answer)
        print(f"{workload.name} {slot}: {time.perf_counter() - start:.1f}s", file=sys.stderr)
    return answers


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS), action="append")
    args = parser.parse_args()
    for name in args.workload or sorted(workloads.WORKLOADS):
        workload = workloads.WORKLOADS[name]()
        answers = record(workload)
        path = workloads.REFERENCE_DIR / f"{name}.json"
        path.write_text(json.dumps({"workload": name, "answers": answers}, indent=1) + "\n")


if __name__ == "__main__":
    main()
