"""Acceptance suite: one test per criterion, each timed against its budget.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
pass lines.  Tolerances are pinned here: cost tables and closed forms are
exact-rational (zero tolerance); optimizer endpoints allow 1e-3 relative;
curve-dominance checks allow 3x the optimizer tolerance (1e-4), far below
the real gaps between the curves.
"""

import random
import time
from contextlib import contextmanager
from fractions import Fraction as F
from itertools import combinations

import pytest

from collabregen.capacity import (
    AdversaryKind,
    AdversaryProfile,
    GroupPartition,
    InfeasibleError,
    SystemParams,
    capacity_polluting,
    capacity_selfish,
    mbr_point,
    mincut_collab,
    mincut_single,
    msr_point,
    msr_selfish_bounds,
    repair_gamma,
)
from collabregen.cli import main as cli_main
from collabregen.exactcode import (
    AMBIGUOUS,
    Behavior,
    FragmentDigestTable,
    NodeBlock,
    collaborative_repair,
    collect,
    collect_robust,
    progressive_repair_with_digests,
)
from collabregen.gf import DecodeAmbiguityError, RsCode, field, rs_decode
from collabregen.scenarios import (
    REFERENCE_COSTS,
    SCENARIO_NAMES,
    CodeSetup,
    Mitigation,
    ScenarioConfig,
    build_demo_system,
    run_cost_scenario,
    simulate_generations,
    stats_to_csv,
)
from collabregen.tradeoff import (
    SweepConfig,
    default_alpha_grid,
    optimize_gamma,
    sweep_curve,
    worst_case_capacity,
)
from oracles import oracle_value

OPT_TOL = 1e-4
DOMINANCE_SLACK = 3 * OPT_TOL  # optimizer noise allowance; real gaps are >10x


@contextmanager
def criterion(number: int, description: str, budget_seconds: float):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        elapsed = time.perf_counter() - start
        print(f"[FAIL] criterion {number}: {description} ({elapsed:.2f}s)")
        raise
    elapsed = time.perf_counter() - start
    print(f"[PASS] criterion {number}: {description} ({elapsed:.2f}s)")
    assert elapsed < budget_seconds, (
        f"criterion {number} took {elapsed:.2f}s, budget {budget_seconds}s"
    )


def params(k, d, t, B=0, alpha=0, beta=0, beta_prime=0):
    return SystemParams.for_repair_network(
        k=k, d=d, t=t, B=B, alpha=alpha, beta=beta, beta_prime=beta_prime
    )


def test_criterion_1_table_fidelity(capsys):
    with criterion(1, "cost tables measured exactly", 1.0):
        for name in SCENARIO_NAMES:
            record = run_cost_scenario(name)
            want = REFERENCE_COSTS[name]
            assert (record.beta_av, record.beta_prime, record.gamma) == (
                want.beta_av,
                want.beta_prime,
                want.gamma,
            ), name
            assert record.effective_d == want.effective_d, name
        assert cli_main(["tables"]) == 0
        out = capsys.readouterr().out
        assert out.count(" ok") == 6 and "MISMATCH" not in out


def test_criterion_2_reference_code_fidelity():
    with criterion(2, "(7,3)/GF(8) encode, collect, 8-unit repair", 1.0):
        code, obj, blocks = build_demo_system(seed=0)
        # the published generator: columns (1, x, x^2) at w, w^2, ..., w^6, 1
        assert code.generator_matrix().int_rows() == [
            [1, 1, 1, 1, 1, 1, 1],
            [2, 4, 3, 6, 7, 5, 1],
            [4, 6, 5, 2, 3, 7, 1],
        ]
        w = code.field.generator
        assert w ** 3 == w + code.field.one  # the defining relation

        for subset in combinations(blocks, 3):  # all 35 collections
            assert collect(list(subset)).pieces == obj.pieces

        truth = {b.node_id: b.payload for b in blocks}
        new_blocks, report = collaborative_repair(code, blocks[:5], [6, 7])
        assert report.total_pieces == 8  # 8 units moved for 4 lost units
        for nb in new_blocks:
            assert nb.payload == truth[nb.node_id]  # bit-identical


def test_criterion_3_closed_form_endpoints():
    with criterion(3, "closed-form operating points and optimizer endpoints", 10.0):
        for t in (1, 4, 8):
            p = params(k=32, d=48, t=t, B=32)
            unit = F(32, 32)
            # independent closed-form evaluation
            msr_want = (unit, unit / (48 - 32 + t), unit / (48 - 32 + t))
            assert msr_point(p) == msr_want
            denom = 2 * 48 - 32 + t
            mbr_want = (
                unit * (2 * 48 + t - 1) / denom,
                unit * 2 / denom,
                unit / denom,
            )
            assert mbr_point(p) == mbr_want
            # bandwidth identity at the minimum-bandwidth point, exact
            assert repair_gamma(p.with_point(*mbr_want)) == mbr_want[0]

            # the optimizer reproduces both endpoints within 1e-3 relative
            msr_gamma = float(48 * msr_want[1] + (t - 1) * msr_want[2])
            point = optimize_gamma(p, None, msr_want[0], tolerance=OPT_TOL)
            assert abs(point.gamma_norm - msr_gamma) <= 1e-3 * msr_gamma, t
            mbr_gamma = float(mbr_want[0])
            point = optimize_gamma(p, None, mbr_want[0], tolerance=OPT_TOL)
            assert abs(point.gamma_norm - mbr_gamma) <= 1e-3 * mbr_gamma, t


def test_criterion_4_selfish_minimum_storage_bounds():
    with criterion(4, "selfish bandwidth bounds at minimum storage", 1.0):
        p = params(k=32, d=48, t=4, B=32)
        adv = AdversaryProfile(AdversaryKind.SELFISH, 1, None, 1, 32)
        bounds = msr_selfish_bounds(p, adv)
        assert (bounds.beta_min, bounds.beta_max) == (F(1, 19), F(1, 18))
        assert (bounds.beta_prime_min, bounds.beta_prime_max) == (F(2, 54), F(3, 38))

        # no selfish newcomers: both ranges collapse to 1/19
        calm = msr_selfish_bounds(p, AdversaryProfile(AdversaryKind.SELFISH, 1, None, 0, 0))
        assert calm.beta_min == calm.beta_max == F(1, 19)
        assert calm.beta_prime_min == calm.beta_prime_max == F(1, 19)

        # every peer selfish: collaboration bandwidth flagged infeasible
        with pytest.raises(InfeasibleError):
            msr_selfish_bounds(p, AdversaryProfile(AdversaryKind.SELFISH, 1, None, 3, 16))


def test_criterion_5a_collaboration_dominance():
    with criterion(5, "(a) larger repair batches dominate, 64-point grid", 30.0):
        wide = params(k=32, d=48, t=1, B=32)
        grid = default_alpha_grid(wide, points=64)
        curves = {}
        for t in (1, 4, 8):
            t0 = time.perf_counter()
            curves[t] = sweep_curve(
                SweepConfig(params(k=32, d=48, t=t, B=32), alpha_grid=grid, tolerance=OPT_TOL)
            )
            assert time.perf_counter() - t0 < 30.0, f"t={t} sweep over budget"
            assert len(curves[t]) == 64
        for c1, c4, c8 in zip(curves[1], curves[4], curves[8]):
            assert c8.gamma_norm <= c4.gamma_norm * (1 + DOMINANCE_SLACK)
            assert c4.gamma_norm <= c1.gamma_norm * (1 + DOMINANCE_SLACK)


def _fixed_g_sweep(total=None, kind=AdversaryKind.SELFISH, grid=None):
    p = params(k=32, d=48, t=4, B=32)
    adv = None if total is None else AdversaryProfile(kind, 1, None, 1, total)
    return sweep_curve(
        SweepConfig(p, adv, alpha_grid=grid, fixed_g=32, tolerance=OPT_TOL)
    )


def test_criterion_5b_5c_adversarial_dominance():
    with criterion(5, "(b)(c) attacked curves dominate, g=32 fixed", 30.0):
        p = params(k=32, d=48, t=4, B=32)
        grid = default_alpha_grid(p, points=64)
        sweeps = {}
        for name, total, kind in (
            ("base", None, None),
            ("self16", 16, AdversaryKind.SELFISH),
            ("self32", 32, AdversaryKind.SELFISH),
            ("poll16", 16, AdversaryKind.POLLUTING),
            ("poll32", 32, AdversaryKind.POLLUTING),
        ):
            t0 = time.perf_counter()
            sweeps[name] = _fixed_g_sweep(total, kind, grid)
            assert time.perf_counter() - t0 < 30.0, f"{name} sweep over budget"
            assert len(sweeps[name]) == 64
        for i in range(64):
            base = sweeps["base"][i].gamma_norm
            s16 = sweeps["self16"][i].gamma_norm
            s32 = sweeps["self32"][i].gamma_norm
            p16 = sweeps["poll16"][i].gamma_norm
            p32 = sweeps["poll32"][i].gamma_norm
            assert s16 >= base * (1 - DOMINANCE_SLACK)
            assert s32 >= s16 * (1 - DOMINANCE_SLACK)
            assert p16 >= s16 * (1 - DOMINANCE_SLACK)
            assert p32 >= s32 * (1 - DOMINANCE_SLACK)


def test_criterion_6_search_equals_enumeration():
    with criterion(6, "worst-case search equals brute force, exhaustively", 60.0):
        value_cycle = [(3, 1, 1), (5, 2, 1), (2, 1, 3), (7, 0, 2)]
        cases = 0
        for k in range(1, 9):
            for t in (1, 2, 3, 4):
                for d in (k, k + 3):
                    profiles = [None]
                    for kind in (AdversaryKind.SELFISH, AdversaryKind.POLLUTING):
                        for among in (0, 1):
                            for maxa in (1, 2):
                                for total in (0, 2, 4):
                                    if kind is AdversaryKind.POLLUTING and 2 * among > d:
                                        continue
                                    profiles.append(
                                        AdversaryProfile(kind, among, None, maxa, total)
                                    )
                    modes = [None]
                    if t > 1 and k > 1:
                        g = (k + t - 1) // t  # smallest admissible group count
                        if g * t >= k >= g:
                            modes.append(g)
                    for adv in profiles:
                        for fixed_g in modes:
                            alpha, beta, bp = value_cycle[cases % len(value_cycle)]
                            p = params(k=k, d=d, t=t, alpha=alpha, beta=beta, beta_prime=bp)
                            expected = oracle_value(p, adv, fixed_g)
                            cases += 1
                            if expected is None:
                                with pytest.raises(InfeasibleError):
                                    worst_case_capacity(p, adv, fixed_g)
                                continue
                            value, part, alloc = worst_case_capacity(p, adv, fixed_g)
                            assert value == expected, (k, t, d, adv, fixed_g)
        assert cases >= 2000
        print(f"  ({cases} configurations checked)")


def test_criterion_7_reduction_identities():
    with criterion(7, "adversary-free reductions, 1000 exact draws", 10.0):
        rng = random.Random(20240917)
        for _ in range(1000):
            k = rng.randint(1, 10)
            t = rng.randint(1, 5)
            d = rng.randint(k, k + 6)
            p = params(
                k=k,
                d=d,
                t=t,
                alpha=F(rng.randint(0, 8), rng.randint(1, 9)),
                beta=F(rng.randint(0, 8), rng.randint(1, 9)),
                beta_prime=F(rng.randint(0, 8), rng.randint(1, 9)),
            )
            groups = []
            left = k
            while left:
                u = rng.randint(1, min(t, left))
                groups.append(u)
                left -= u
            part = GroupPartition(tuple(groups))
            zeros = (0,) * part.g
            base = mincut_collab(p, part)
            selfish = AdversaryProfile(AdversaryKind.SELFISH, 0, zeros)
            polluting = AdversaryProfile(AdversaryKind.POLLUTING, 0, zeros)
            assert capacity_selfish(p, part, selfish) == base
            assert capacity_polluting(p, part, polluting) == base
            if t == 1:
                assert base == mincut_single(p)


def test_criterion_8_decoding_radius():
    with criterion(8, "(7,3) decoding over the full erasure/error radius", 30.0):
        code = RsCode.with_power_points(field(3), 7, 3, first_power=1)
        f = code.field
        rng = random.Random(88)
        pairs = [
            (n_s, n_b)
            for n_s in range(5)
            for n_b in range(3)
            if n_s + 2 * n_b <= 4
        ]
        assert len(pairs) == 9
        for n_s, n_b in pairs:
            for _ in range(200):
                msg = tuple(f.element(rng.randrange(8)) for _ in range(3))
                word = list(code.encode(msg))
                positions = rng.sample(range(7), n_s + n_b)
                for pos in positions[:n_s]:
                    word[pos] = None
                for pos in positions[n_s:]:
                    word[pos] = f.element(word[pos].value ^ rng.randrange(1, 8))
                assert rs_decode(code, list(enumerate(word))) == msg, (n_s, n_b)

        # one erasure plus two errors exceeds the radius: flagged, never wrong
        msg = (f.element(1), f.element(2), f.element(3))
        word = list(code.encode(msg))
        word[0] = None
        word[1] = f.element(word[1].value ^ 5)
        word[2] = f.element(word[2].value ^ 6)
        with pytest.raises(DecodeAmbiguityError):
            rs_decode(code, list(enumerate(word)))


def _corrupt(block: NodeBlock, rng: random.Random) -> NodeBlock:
    f = block.payload[0].field
    payload = tuple(
        type(p)(p.value ^ rng.randrange(1, f.order), f) for p in block.payload
    )
    return NodeBlock(block.node_id, block.column, payload)


def test_criterion_9_digest_mitigation():
    with criterion(9, "digest-verified progressive repair", 5.0):
        code, obj, blocks = build_demo_system(seed=4)
        table = FragmentDigestTable.from_blocks(blocks)
        truth = {b.node_id: b.payload for b in blocks}

        # one polluter among five live nodes: verified within 4 contacts
        new, report = progressive_repair_with_digests(
            code, blocks[:5], [6, 7], {1: Behavior.POLLUTING}, table
        )
        assert report.effective_d <= 4
        assert all(nb.payload == truth[nb.node_id] for nb in new)

        # two polluters: still verified (all five live nodes contacted)
        bad = {1: Behavior.POLLUTING, 2: Behavior.POLLUTING}
        new, report = progressive_repair_with_digests(
            code, blocks[:5], [6, 7], bad, table
        )
        assert report.effective_d == 5
        assert all(nb.payload == truth[nb.node_id] for nb in new)

        # without digests, two polluters defeat majority collection
        for seed in range(4):
            rng = random.Random(seed)
            received = list(blocks[:5])
            received[0] = _corrupt(received[0], rng)
            received[3] = _corrupt(received[3], rng)
            assert collect_robust(received, max_polluters=2) is AMBIGUOUS


def test_criterion_10_simulation_invariants():
    with criterion(10, "32-generation runs: reproducible, monotone, clean", 30.0):
        def config(mitigation):
            return ScenarioConfig(
                code=CodeSetup(m=8, n=10, kappa=3, t=2, first_power=1),
                generations=32,
                seed=11,
                mitigation=mitigation,
                behaviors={1: Behavior.POLLUTING},
            )

        first = stats_to_csv(simulate_generations(config(Mitigation.NONE)))
        second = stats_to_csv(simulate_generations(config(Mitigation.NONE)))
        assert first == second  # byte-reproducible

        stats = simulate_generations(config(Mitigation.NONE))
        counts = [s.polluted_block_count for s in stats]
        assert len(counts) == 32
        assert counts == sorted(counts)  # non-decreasing without mitigation
        assert counts[-1] > 0

        clean = simulate_generations(config(Mitigation.DIGESTS))
        assert all(s.polluted_block_count == 0 for s in clean)
        repeat = stats_to_csv(simulate_generations(config(Mitigation.DIGESTS)))
        assert repeat == stats_to_csv(clean)
