"""scripts/ab.py: two trees timed against each other in one interpreter."""

import importlib.util
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_one_round_of_curves_against_itself(tmp_path):
    # A/A: this tree as both base and head.  Every item of both curves
    # pools is checked on each side and timed once per side.
    out = tmp_path / "ab.json"
    done = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "ab.py"), "--base", str(ROOT),
         "--workload", "curves", "--rounds", "1", "--out", str(out)],
        capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert "base: " in done.stdout and "32 items checked, 0 failed" in done.stdout
    assert "summed per-item medians" in done.stdout and "rounds the head won" in done.stdout
    doc = json.loads(out.read_text())
    assert doc["rounds"] == 1 and doc["cores"] >= 1 and doc["python"]
    assert set(doc) >= {"base", "head", "workloads"}
    curves = doc["workloads"]["curves"]
    medians = curves["item_medians"]
    assert len(medians) == 32 and len(curves["round_ratios"]) == 1
    assert "samples" not in curves  # the record keeps what the summary reads, not every sample
    slots = dict.fromkeys(m["slot"] for m in medians)
    assert len(slots) == 8 and list(curves["slot_median_sum_ratios"]) == list(slots)
    lines = done.stdout.splitlines()
    for slot in slots:  # one ratio line per slot
        assert sum(line.split()[:1] == [slot] and len(line.split()) == 2 for line in lines) == 1
    assert min(min(m["base"], m["head"]) for m in medians) > 0
    assert {side: len(sums) for side, sums in curves["round_sums"].items()} == {"base": 1, "head": 1}
    # the summary is computed again from the record alone
    spec = importlib.util.spec_from_file_location("ab", ROOT / "scripts" / "ab.py")
    ab = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(ab)
    summary = ab.summarize(medians, curves["round_sums"])
    assert {key: curves[key] for key in summary} == summary
