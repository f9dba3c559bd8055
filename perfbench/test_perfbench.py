"""Checks of the benchmark itself: tracing changes no output, the checks
catch wrong outputs, and the metric names match BENCHMARK.json.

Run from the repository root: python3 -m pytest perfbench -q
"""

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import pytest  # noqa: E402

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from collabregen import scenarios  # noqa: E402

# cheap inputs of every workload, covering every traced layer
SAMPLE = {
    "curves": [("collab_t1", 3), ("attack_baseline_g32", 1), ("attack_selfish_32", 0)],
    "repair_sim": [
        ("10_3:polluting_live_digests", 2),
        ("10_3:polluting_live_vote", 4),
        ("10_3:selfish_newcomer", 1),
    ],
    "degraded_read": [("o10:b10:p1:m1", 0), ("o10:b10:p2:m1", 6), ("r12:s2:e2", 9)],
}


def exact_bytes(name, out) -> bytes:
    if name == "repair_sim":
        return scenarios.stats_to_csv(out).encode()
    if name == "curves":
        return repr(out).encode()
    return workloads.DegradedRead.answer(None, out).encode()


@pytest.mark.parametrize("name", sorted(SAMPLE))
def test_tracing_changes_no_output(name):
    workload = workloads.WORKLOADS[name]()
    reference = workloads.load_reference(name)
    items = [workload.build(*key) for key in SAMPLE[name]]
    plain = [exact_bytes(name, item.call()) for item in items]
    tracer = tracing.Tracer()
    with tracer.active():
        traced = [item.call() for item in items]
    assert [exact_bytes(name, out) for out in traced] == plain
    for item, out in zip(items, traced):
        assert workload.failures(item, out, reference[item.slot][item.variant]) == 0
    assert sum(span.calls for span in tracer.spans.values()) > 0


def test_wrappers_sit_where_callers_look_and_are_removed():
    originals = {(ns, attr): tracing.resolve(ns, attr)[2] for _, ns, attr in tracing.SITES}
    tracer = tracing.Tracer()
    with tracer.active():
        for (ns, attr), original in originals.items():
            assert tracing.resolve(ns, attr)[2].__wrapped__ is original
        workloads.RepairSim().build("10_3:polluting_live_digests", 0).call()
    for (ns, attr), original in originals.items():
        assert tracing.resolve(ns, attr)[2] is original
    spans = tracer.spans
    assert spans["scenarios.simulate_generations"].calls == 1
    assert spans["exactcode.progressive_repair_with_digests"].calls == workloads.GENERATIONS
    assert spans["exactcode.digest_check"].calls > 0
    assert spans["gf.rs_decode"].calls > 0
    assert tracer.pieces_moved > 0 and tracer.contacts > 0


def test_checks_count_wrong_outputs():
    curves = workloads.Curves()
    item = curves.build("collab_t1", 0)
    stored = workloads.load_reference("curves")["collab_t1"][0]
    points = item.call()
    assert curves.failures(item, points, stored) == 0
    off = [[a, g * (1 + 2e-3), p] for a, g, p in stored]
    assert curves.failures(item, points, off) == len(points)
    assert curves.failures(item, points[1:], stored) == 1

    sim = workloads.RepairSim()
    item = sim.build("10_3:honest", 0)
    stats = item.call()
    assert sim.failures(item, stats, workloads.load_reference("repair_sim")["10_3:honest"][0]) == 0
    assert sim.failures(item, stats[1:], sim.answer(item, stats)) == 1

    reads = workloads.DegradedRead()
    item = reads.build("o10:b10:p1:m1", 0)
    assert reads.failures(item, workloads.FLAG, workloads.FLAG) == 1  # inside: must decode


def test_metric_names_match_benchmark_json():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == tracing.PER_LAYER_UNITS
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOAD_NAMES)
    assert set(run.WORKLOAD_NAMES) == set(workloads.WORKLOADS)


@pytest.mark.parametrize("name", sorted(SAMPLE))
def test_schedule_depends_only_on_the_seed(name):
    workload = workloads.WORKLOADS[name]
    assert workloads.schedule(workload, 5, 3) == workloads.schedule(workload, 5, 3)
    assert workloads.schedule(workload, 5, 3) != workloads.schedule(workload, 6, 3)
    for seed in (5, workloads.HELDOUT_SEED):
        calls = workloads.schedule(workload, seed, workload.variants)
        for slot in workload.slots:  # no input repeats within `variants` rounds
            assert len({v for s, v in calls if s == slot}) == workload.variants


@pytest.mark.parametrize("name", sorted(SAMPLE))
def test_heldout_seed_draws_inputs_no_other_seed_draws(name):
    workload = workloads.WORKLOADS[name]
    rounds = 2 * workload.variants
    heldout = {v for _, v in workloads.schedule(workload, workloads.HELDOUT_SEED, rounds)}
    others = {v for seed in range(1, 21) for _, v in workloads.schedule(workload, seed, rounds)}
    assert heldout and not heldout & others
    assert heldout | others == set(workloads.all_variants(workload))
    stored = workloads.load_reference(name)
    assert all(len(stored[slot]) == len(workloads.all_variants(workload)) for slot in workload.slots)


def test_heldout_curve_levels_are_new():
    curves = workloads.Curves()
    levels = [set(curves.build("collab_t8", v).expect[0]) for v in workloads.all_variants(curves)]
    first = set().union(*levels[: curves.variants])
    second = set().union(*levels[curves.variants :])
    assert len(first) == len(second) == workloads.POOL_LEVELS
    assert not first & second


def test_tracer_refuses_a_missing_site(monkeypatch):
    monkeypatch.setattr(
        tracing, "SITES", tracing.SITES + (("gf.rs_decode", tracing.gf, "no_such_fn"),)
    )
    originals = {(ns, attr): tracing.resolve(ns, attr)[2] for _, ns, attr in tracing.SITES}
    tracer = tracing.Tracer()
    with pytest.raises(LookupError):
        with tracer.active():
            pass
    for (ns, attr), original in originals.items():
        assert tracing.resolve(ns, attr)[2] is original
