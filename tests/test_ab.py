"""scripts/ab.py: two trees timed against each other in one interpreter."""

import importlib.util
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_two_rounds_of_curves_against_itself(tmp_path):
    # A/A: this tree as both base and head, two rounds, one per load
    # order.  Every item of both curves pools is checked on each side in
    # each order and timed once per side and round.
    out = tmp_path / "ab.json"
    done = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "ab.py"), "--base", str(ROOT),
         "--workload", "curves", "--rounds", "2", "--out", str(out)],
        capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert "base: " in done.stdout and done.stdout.count("32 items checked, 0 failed") == 4
    assert "summed per-item medians" in done.stdout and "rounds the head won" in done.stdout
    assert "per-round ratio by order base first" in done.stdout
    doc = json.loads(out.read_text())
    assert doc["rounds"] == 2 and doc["cores"] >= 1 and doc["python"]
    assert doc["round_orders"] == ["base first", "head first"]  # both load orders
    assert set(doc) >= {"base", "head", "workloads"}
    curves = doc["workloads"]["curves"]
    medians = curves["item_medians"]
    assert len(medians) == 32 and len(curves["round_ratios"]) == 2
    assert list(curves["order_round_ratio_medians"]) == ["base first", "head first"]
    assert "samples" not in curves  # the record keeps what the summary reads, not every sample
    slots = dict.fromkeys(m["slot"] for m in medians)
    assert len(slots) == 8 and list(curves["slot_median_sum_ratios"]) == list(slots)
    lines = done.stdout.splitlines()
    for slot in slots:  # one ratio line per slot
        assert sum(line.split()[:1] == [slot] and len(line.split()) == 2 for line in lines) == 1
    assert min(min(m["base"], m["head"]) for m in medians) > 0
    assert {side: len(sums) for side, sums in curves["round_sums"].items()} == {"base": 2, "head": 2}
    # the summary is computed again from the record alone
    spec = importlib.util.spec_from_file_location("ab", ROOT / "scripts" / "ab.py")
    ab = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(ab)
    summary = ab.summarize(medians, curves["round_sums"], doc["round_orders"])
    assert {key: curves[key] for key in summary} == summary


def test_one_round_cannot_cover_both_load_orders():
    done = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "ab.py"), "--base", str(ROOT), "--rounds", "1"],
        capture_output=True, text=True, timeout=60,
    )
    assert done.returncode == 2 and "--rounds must be at least 2" in done.stderr
