"""The three benchmark workloads: seeded inputs, the timed call of each
operation, and the check of every output against the seed's answers.

A workload is a fixed list of slots.  One round runs every slot once,
each slot on one of its variant inputs.  The inputs of a slot variant
are a pure function of (workload, slot, variant).  Each slot has two
pools of ``variants`` variants: the held-out seed HELDOUT_SEED draws
only from the second, every other seed only from the first, so a claim
can be checked on inputs that no tuning run has seen.  A pool holds as
many variants as a 20 s run has rounds, and a run takes them in a
seeded order: every seed but the held-out one does the same work, so
the spread of a metric across seeds is the host's noise alone.  The
cost of an input varies enough that runs drawing a seeded share of a
larger pool would see their p90 latency spread across seeds by 19% on
curves and 6% on repair_sim from the inputs alone.  The seed version's answers for both pools
are stored in ``reference/<workload>.json``.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

from collabregen import capacity, exactcode, gf, scenarios, tradeoff

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"

DEFAULT_SEED = 1
HELDOUT_SEED = 1009  # the only seed that draws from the second pool
FLAG = "flag"  # the outcome of a read the library refuses to decode


@dataclass
class Item:
    """One timed call.  ``ops`` is the number of user operations it
    performs (curve points for a sweep, else 1)."""

    slot: str
    variant: int
    ops: int
    call: Callable[[], Any]
    # what the check needs besides the stored answer: the requested
    # levels of a sweep, the true answer of a read inside the radius
    expect: Any = None


def _digest(values) -> str:
    return hashlib.sha256(repr(tuple(values)).encode()).hexdigest()[:32]


def _rng(workload: str, slot: str, variant: int) -> random.Random:
    return random.Random(f"{workload}/{slot}/{variant}")


# --- curves -----------------------------------------------------------

D, K = 48, 32
POOL_LEVELS = 32  # storage levels between minimum storage and MBR
GRID_STRIDE = 2  # grid j is pool[j::2]: 16 levels across the whole range
CURVE_SLOTS = (
    "collab_t1",
    "collab_t4",
    "collab_t8",
    "attack_baseline_g32",
    "attack_selfish_16",
    "attack_selfish_32",
    "attack_polluting_16",
    "attack_polluting_32",
)


class Curves:
    """The eight curves of the figure sweep at d=48, k=32 (one op is one
    requested storage level).  Each sweep runs over a figure-like grid:
    16 evenly spaced levels across the whole range, every other level of
    a 32-level pool, so that as in the figure one point in 16 starts
    cold and the rest warm-start from the adjacent level.  The cost of
    a point changes erratically from level to level: of the eight
    interleaved 16-level grids of a 128-level pool, one has a median t=8
    point twice as costly as another's.  The first pool is
    ``default_alpha_grid(points=32)``; the held-out pool is the 32
    midpoints of a 64-step grid, none of which is in the first."""

    name = "curves"
    slots = CURVE_SLOTS
    variants = GRID_STRIDE
    ops_per_slot = POOL_LEVELS // GRID_STRIDE

    def __init__(self):
        self._params = {
            t: capacity.SystemParams.for_repair_network(k=K, d=D, t=t, B=K)
            for t in (1, 4, 8)
        }
        self._pools = {
            kind: (
                tradeoff.default_alpha_grid(self._params[t], points=POOL_LEVELS),
                tradeoff.default_alpha_grid(self._params[t], points=2 * POOL_LEVELS + 1)[1::2],
            )
            for kind, t in (("collab", 1), ("attack", 4))
        }

    def _config(self, slot: str, grid):
        if slot.startswith("collab_t"):
            return tradeoff.SweepConfig(self._params[int(slot[8:])], alpha_grid=grid)
        adversary = None
        if slot != "attack_baseline_g32":
            _, kind, total = slot.split("_")
            adversary = capacity.AdversaryProfile(
                capacity.AdversaryKind(kind), among_live=1, per_group_max=1, total=int(total)
            )
        return tradeoff.SweepConfig(
            self._params[4], adversary, alpha_grid=grid, fixed_g=K
        )

    def build(self, slot: str, variant: int) -> Item:
        pools = self._pools["collab" if slot.startswith("collab") else "attack"]
        pool = pools[variant // GRID_STRIDE]
        grid = pool[variant % GRID_STRIDE :: GRID_STRIDE]
        cfg = self._config(slot, grid)
        item = Item(slot, variant, len(grid), lambda: tradeoff.sweep_curve(cfg))
        unit = cfg.params.unit
        item.expect = ([float(a / unit) for a in grid], cfg.params.t, cfg.fixed_g)
        return item

    @staticmethod
    def answer(item: Item, points) -> list:
        return [
            [p.alpha_norm, p.gamma_norm, "|".join(map(str, p.witness_partition.groups))]
            for p in points
        ]

    @staticmethod
    def failures(item: Item, points, stored: list) -> int:
        """Failed ops among the requested levels: a level the seed solved
        and this run did not (or the reverse), a gamma off by more than
        1e-3 relative, or an invalid witness partition."""
        levels, t, fixed_g = item.expect
        want = {a: g for a, g, _ in stored}
        got = {p.alpha_norm: p for p in points}
        failed = len(set(got) - set(levels)) + (len(points) != len(got))
        for a in levels:
            if (a in want) != (a in got):
                failed += 1
            elif a in got:
                p = got[a]
                groups = p.witness_partition.groups
                valid = (
                    sum(groups) == K
                    and all(1 <= u <= t for u in groups)
                    and (fixed_g is None or len(groups) == fixed_g)
                )
                if not valid or abs(p.gamma_norm - want[a]) > 1e-3 * abs(want[a]):
                    failed += 1
        return failed


# --- repair_sim -------------------------------------------------------

GENERATIONS = 32
SIM_CODES = {
    "10_3": scenarios.CodeSetup(m=8, n=10, kappa=3, t=2, first_power=1),
    "16_6": scenarios.CodeSetup(m=8, n=16, kappa=6, t=3, first_power=1),
}
SIM_CONFIGS = (
    "honest",
    "selfish_live_keep",
    "selfish_live_new",
    "selfish_newcomer",
    "polluting_newcomer",
    "polluting_live_trust",
    "polluting_live_vote",
    "polluting_live_digests",
)
NEWCOMER_SHARE = 0.25  # generations in which one newcomer misbehaves


class RepairSim:
    """32-generation simulations over GF(2^8) (one op is one run)."""

    name = "repair_sim"
    slots = tuple(f"{c}:{k}" for c in SIM_CODES for k in SIM_CONFIGS)
    variants = 24  # the rounds of a 20 s run
    ops_per_slot = 1

    def __init__(self):
        gf.field(8)  # the field tables every command builds first

    def build(self, slot: str, variant: int) -> Item:
        code_name, kind = slot.split(":")
        code = SIM_CODES[code_name]
        rng = _rng(self.name, slot, variant)
        Behavior = exactcode.Behavior
        behaviors = {}
        if "_live" in kind:
            # among the kappa lowest ids, which the first contact stripe of
            # every repair holds, so each run meets the adversary
            bad = Behavior.SELFISH if kind.startswith("selfish") else Behavior.POLLUTING
            behaviors[rng.randrange(1, code.kappa + 1)] = bad
        pool = [i for i in range(1, code.n + 1) if i not in behaviors]
        schedule = [sorted(rng.sample(pool, code.t)) for _ in range(GENERATIONS)]
        overrides = {}
        if kind.endswith("newcomer"):
            bad = Behavior.SELFISH if kind.startswith("selfish") else Behavior.POLLUTING
            for gen, failed in enumerate(schedule):
                if rng.random() < NEWCOMER_SHARE:
                    overrides[gen] = {rng.choice(failed): bad}
        extra = {}
        if kind == "selfish_live_new":
            extra["policy"] = exactcode.RepairPolicy.CONTACT_NEW_NODES
        elif kind == "polluting_live_vote":
            extra["assumed_polluters"] = 1
        elif kind == "polluting_live_digests":
            extra["mitigation"] = scenarios.Mitigation.DIGESTS
        cfg = scenarios.ScenarioConfig(
            code=code,
            generations=GENERATIONS,
            seed=rng.randrange(2**32),
            object_id=f"obj-{variant}",
            failure_schedule=schedule,
            behaviors=behaviors,
            behavior_overrides=overrides,
            **extra,
        )
        return Item(slot, variant, 1, lambda: scenarios.simulate_generations(cfg))

    @staticmethod
    def answer(item: Item, stats) -> str:
        return hashlib.sha256(scenarios.stats_to_csv(stats).encode()).hexdigest()

    @classmethod
    def failures(cls, item: Item, stats, stored: str) -> int:
        return int(cls.answer(item, stats) != stored)


# --- degraded_read ----------------------------------------------------

# Object reads: (n, kappa, t) codes read through collect_robust with
# (blocks given, of them polluted, max_polluters).
OBJECT_CODES = {"o10": (10, 3, 2), "o12": (12, 6, 2)}
# Row reads: (n, kappa) codes read through rs_decode with
# (erasures n_s, errors n_b).
ROW_CODES = {"r12": (12, 6), "r14": (14, 10)}
# Read cost follows the number of kappa-subsets tried.  The slots form
# three cost groups at the seed: eight reads under 30 ms, eight near
# 100 ms and four near 425 ms.  Each slot adds one sample per round, so
# a percentile of a run's latencies sits on the border between two
# slots' samples; the groups put the median a quarter of the way into
# the 100 ms group and p90 in the middle of the four equal slowest
# slots, never between groups.  "#k" marks another slot with the same
# structure.  Two reads in twenty are beyond the decoding radius.
READ_SLOTS = (
    "o10:b10:p1:m1",
    "o10:b9:p1:m2",
    "o10:b10:p2:m1",  # beyond: more polluters than planned for
    "o12:b9:p0:m1",
    "r12:s4:e1",
    "r12:s2:e2",
    "r14:s2:e1",
    "r14:s3:e0",
    "r12:s0:e0",
    "r12:s0:e1",
    "r12:s0:e2",
    "r12:s0:e3",
    "o12:b11:p1:m2",
    "o12:b11:p2:m2",
    "o12:b12:p0:m1",
    "o12:b12:p1:m1",
    "r14:s0:e2",
    "r14:s0:e2#2",
    "r14:s0:e2#3",
    "r14:s0:e3",  # beyond: n_s + 2 n_b = 6 > n - kappa = 4
)


def _parse_slot(slot: str):
    code, *fields = slot.split("#")[0].split(":")
    return code, [int(f[1:]) for f in fields]


def read_inside_radius(slot: str) -> bool:
    code, nums = _parse_slot(slot)
    if code in OBJECT_CODES:
        _, kappa, _ = OBJECT_CODES[code]
        given, polluted, max_polluters = nums
        return polluted <= max_polluters and given - polluted >= kappa + max_polluters
    n, kappa = ROW_CODES[code]
    erasures, errors = nums
    return erasures + 2 * errors <= n - kappa


class DegradedRead:
    """Seeded reads from blocks with erasures and polluted symbols (one
    op is one read)."""

    name = "degraded_read"
    slots = READ_SLOTS
    variants = 7  # the rounds of a 20 s run
    ops_per_slot = 1

    def __init__(self):
        self._field = gf.field(8)

    def _wrong(self, value: int, rng: random.Random) -> gf.FieldElement:
        return gf.FieldElement(value ^ rng.randrange(1, self._field.order), self._field)

    def build(self, slot: str, variant: int) -> Item:
        rng = _rng(self.name, slot, variant)
        code_name, nums = _parse_slot(slot)
        F = self._field
        if code_name in OBJECT_CODES:
            n, kappa, t = OBJECT_CODES[code_name]
            given, polluted, max_polluters = nums
            code = gf.RsCode.with_power_points(F, n, kappa, 1)
            obj = exactcode.ObjectMatrix.random(F, t, kappa, rng)
            blocks = exactcode.encode_object(obj, code)
            kept = sorted(rng.sample(range(n), given))
            bad = set(rng.sample(kept, polluted))
            read = []
            for i in kept:
                b = blocks[i]
                if i in bad:
                    payload = tuple(self._wrong(s.value, rng) for s in b.payload)
                    b = exactcode.NodeBlock(b.node_id, b.column, payload)
                read.append(b)

            def call():
                out = exactcode.collect_robust(read, max_polluters)
                return FLAG if out is exactcode.AMBIGUOUS else out

            truth = [v for row in obj.pieces.int_rows() for v in row]
        else:
            n, kappa = ROW_CODES[code_name]
            erasures, errors = nums
            code = gf.RsCode.with_power_points(F, n, kappa, 1)
            message = [F.element(rng.randrange(F.order)) for _ in range(kappa)]
            word = code.encode(message)
            kept = sorted(rng.sample(range(n), n - erasures))
            bad = set(rng.sample(kept, errors))
            received = [
                (i, self._wrong(word[i].value, rng) if i in bad else word[i])
                for i in kept
            ]

            def call():
                try:
                    return gf.rs_decode(code, received)
                except gf.DecodeAmbiguityError:
                    return FLAG

            truth = [s.value for s in message]
        item = Item(slot, variant, 1, call)
        if read_inside_radius(slot):
            item.expect = _digest(truth)
        return item

    @staticmethod
    def answer(item: Item, out) -> str:
        if isinstance(out, str):
            return out
        if isinstance(out, exactcode.ObjectMatrix):
            return _digest(v for row in out.pieces.int_rows() for v in row)
        return _digest(s.value for s in out)

    @classmethod
    def failures(cls, item: Item, out, stored: str) -> int:
        got = cls.answer(item, out)
        return int(got != stored or (item.expect is not None and got != item.expect))


WORKLOADS = {w.name: w for w in (Curves, RepairSim, DegradedRead)}


def load_reference(name: str) -> dict:
    with open(REFERENCE_DIR / f"{name}.json") as fh:
        return json.load(fh)["answers"]


def seed_pool(workload, seed: int) -> range:
    """The variants a run seed draws from."""
    v = workload.variants
    return range(v, 2 * v) if seed == HELDOUT_SEED else range(v)


def all_variants(workload) -> range:
    """Every variant any seed can draw, both pools."""
    return range(2 * workload.variants)


def schedule(workload, seed: int, rounds: int) -> list[tuple[str, int]]:
    """The (slot, variant) calls of ``rounds`` rounds for a run seed.

    Round r runs every slot, in a seeded order, on variant perm[r] of a
    seeded permutation of the seed's pool, so the collaborative curves
    share their storage grid as in the figure sweep, and a run of up to
    ``variants`` rounds never repeats an input."""
    rng = random.Random(seed)
    variants = seed_pool(workload, seed)
    perm = rng.sample(variants, len(variants))
    calls = []
    for r in range(rounds):
        order = list(workload.slots)
        rng.shuffle(order)
        calls.extend((s, perm[r % len(perm)]) for s in order)
    return calls
