"""scripts/ab.py: two trees timed against each other in one interpreter."""

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
    assert len(curves["samples"]) == 32 and len(curves["round_ratios"]) == 1
    slots = dict.fromkeys(sample["slot"] for sample in curves["samples"])
    assert len(slots) == 8 and list(curves["slot_median_sum_ratios"]) == list(slots)
    lines = done.stdout.splitlines()
    for slot in slots:  # one ratio line per slot
        assert sum(line.split()[:1] == [slot] and len(line.split()) == 2 for line in lines) == 1
    for sample in curves["samples"]:
        assert len(sample["base"]) == len(sample["head"]) == len(sample["head_first"]) == 1
        assert min(sample["base"] + sample["head"]) > 0
