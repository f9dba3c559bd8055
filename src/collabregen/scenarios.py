"""Cost-table scenarios and multi-generation repair simulation.

``run_cost_scenario`` measures the normalized repair costs of the six
canonical adversary placements on the (7,3) code over GF(8) with two
simultaneous failures; nothing is hard-coded, the numbers come out of an
actual repair run.  ``simulate_generations`` runs seeded multi-round
simulations that track how pollution spreads through repairs and what
each generation's repair costs, with or without digest verification.
"""

from __future__ import annotations

import enum
import json
import random
from dataclasses import asdict, dataclass, field as dc_field, fields
from fractions import Fraction
from functools import partial
from itertools import chain
from reprlib import repr as brief_repr  # echoes a rejected value at a bounded length
from typing import Optional, Sequence

from .capacity import _csv, fraction_str
from .exactcode import (
    Behavior,
    FragmentDigestTable,
    NodeBlock,
    ObjectMatrix,
    RepairFailureError,
    RepairPolicy,
    _as_served,
    collaborative_repair,
    collect,  # not called here; perfbench/tracing.py wraps scenarios.collect
    encode_object,
    progressive_repair_with_digests,
)
from .gf import RsCode, field


@dataclass(frozen=True)
class CodeSetup:
    """Code parameters for a scenario run; a simulation needs 1 <= t <= n - kappa."""

    m: int = 3
    n: int = 7
    kappa: int = 3
    t: int = 2
    first_power: int = 1

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            if type(value) is not int:
                raise ValueError(f"code.{f.name} must be an integer, got {brief_repr(value)}")

    def build(self) -> RsCode:
        return RsCode.with_power_points(field(self.m), self.n, self.kappa, self.first_power)


def build_demo_system(seed: int = 0, setup: CodeSetup = CodeSetup()):
    """The reference system: an RS code, a seeded object, and its blocks."""
    code = setup.build()
    rng = random.Random(seed)
    obj = ObjectMatrix.random(code.field, setup.t, setup.kappa, rng)
    return code, obj, encode_object(obj, code)


@dataclass(frozen=True)
class CostRecord:
    scenario: str
    beta_av: Fraction
    beta_prime: Fraction
    gamma: Fraction
    effective_d: int

    def as_strings(self) -> tuple[str, str, str, str]:
        return (
            fraction_str(self.beta_av),
            fraction_str(self.beta_prime),
            fraction_str(self.gamma),
            str(self.effective_d),
        )


# The classic per-repair costs for the six placements (alpha = 1, t = 2,
# d = 3, normalized by B/k); the live-polluter column pays d = 5.
REFERENCE_COSTS: dict[str, CostRecord] = {
    "selfish-baseline": CostRecord("selfish-baseline", Fraction(1, 2), Fraction(1, 2), Fraction(2), 3),
    "selfish-newcomer": CostRecord("selfish-newcomer", Fraction(1), Fraction(0), Fraction(3), 3),
    "selfish-live": CostRecord("selfish-live", Fraction(3, 4), Fraction(1, 2), Fraction(2), 3),
    "polluting-baseline": CostRecord("polluting-baseline", Fraction(1, 2), Fraction(1, 2), Fraction(2), 3),
    "polluting-newcomer": CostRecord("polluting-newcomer", Fraction(1), Fraction(0), Fraction(3), 3),
    "polluting-live": CostRecord("polluting-live", Fraction(1, 2), Fraction(1, 2), Fraction(3), 5),
}

SCENARIO_NAMES = tuple(REFERENCE_COSTS)


def run_cost_scenario(name: str, seed: int = 0) -> CostRecord:
    """Measure one canonical scenario's costs from a real repair run.

    The two highest node ids fail; the misbehaving node is the first
    newcomer for the *-newcomer scenarios and the lowest live id (which
    sits in both newcomers' contact stripes) for the *-live ones.
    """
    if name not in REFERENCE_COSTS:
        raise ValueError(f"unknown scenario {name!r}; pick one of {SCENARIO_NAMES}")
    code, _, blocks = build_demo_system(seed)
    failed = [b.node_id for b in blocks[-2:]]
    live = blocks[: len(blocks) - 2]

    kind, _, where = name.partition("-")  # e.g. "selfish-live"
    bad = Behavior(kind)
    behaviors: dict[int, Behavior] = {}
    if where == "newcomer":
        behaviors[failed[0]] = bad
    elif where == "live":
        behaviors[live[0].node_id] = bad

    new_blocks, report = collaborative_repair(
        code, live, failed, behaviors, seed=seed
    )
    truth = {b.node_id: b.payload for b in blocks}
    for nb in new_blocks:
        expected_bad = behaviors.get(nb.node_id) is Behavior.POLLUTING
        if not expected_bad and nb.payload != truth[nb.node_id]:
            raise RepairFailureError(f"scenario {name}: repaired block differs")
    return CostRecord(name, report.beta_av, report.beta_prime, report.gamma, report.effective_d)


def run_all_cost_scenarios(seed: int = 0) -> list[CostRecord]:
    return [run_cost_scenario(name, seed) for name in SCENARIO_NAMES]


class Mitigation(str, enum.Enum):
    NONE = "none"
    DIGESTS = "digests"


@dataclass
class ScenarioConfig:
    """A seeded multi-generation simulation.

    ``behaviors`` maps node ids to persistent behaviors;
    ``behavior_overrides`` maps a generation index (0..generations-1) to
    extra per-node behaviors for that generation only (e.g. a newcomer misbehaving).
    Without an explicit ``failure_schedule`` one is drawn from the seed,
    never failing a persistently misbehaving node, so adversaries persist.
    """

    code: CodeSetup = dc_field(default_factory=CodeSetup)
    generations: int = 8
    seed: int = 0
    object_id: str = "obj-0"
    mitigation: Mitigation = Mitigation.NONE
    failure_schedule: Optional[list[list[int]]] = None
    behaviors: dict[int, Behavior] = dc_field(default_factory=dict)
    behavior_overrides: dict[int, dict[int, Behavior]] = dc_field(default_factory=dict)
    pollute_collection: bool = False
    assumed_polluters: Optional[int] = 0
    policy: RepairPolicy = RepairPolicy.KEEP_RESPONDERS

    def __post_init__(self):
        g, assumed = self.generations, self.assumed_polluters
        if not (type(g) is int and g >= 0):
            raise ValueError(f"generations must be a nonnegative integer, got {brief_repr(g)}")
        if assumed is not None and not (type(assumed) is int and assumed >= 0):
            raise ValueError(f"assumed_polluters must be a nonnegative integer, got {brief_repr(assumed)}")
        if type(self.seed) is not int:
            raise ValueError(f"seed must be an integer, got {brief_repr(self.seed)}")
        if not isinstance(self.object_id, str):
            raise ValueError(f"object_id must be a string, got {brief_repr(self.object_id)}")
        if not isinstance(self.pollute_collection, bool):
            raise ValueError(
                f"pollute_collection must be true or false, got {brief_repr(self.pollute_collection)}"
            )
        schedule = self.failure_schedule
        if schedule is not None and not (  # whole-list type scans stay cheap for long schedules
            type(schedule) in (list, tuple)
            and set(map(type, schedule)) <= {list, tuple}
            and set(map(type, chain.from_iterable(schedule))) <= {int}
        ):
            raise ValueError(f"failure_schedule must be a list of node id lists, got {brief_repr(schedule)}")
        self.mitigation = _member(Mitigation, self.mitigation)
        self.policy = _member(RepairPolicy, self.policy)
        self.behaviors = _int_keyed(self.behaviors, "behaviors", partial(_member, Behavior))
        self.behavior_overrides = _int_keyed(
            self.behavior_overrides,
            "behavior_overrides",
            lambda m: _int_keyed(m, "an entry", partial(_member, Behavior)),
        )
        outside = sorted(i for i in self.behavior_overrides if not 0 <= i < g)
        if outside:
            raise ValueError(
                f"behavior_overrides: generations {outside} outside 0..{g - 1}"
                f" (generations is {g})"
            )
        n = self.code.n
        maps = [("behaviors", self.behaviors)]
        maps += [(f"behavior_overrides[{g}]", m) for g, m in self.behavior_overrides.items()]
        for what, m in maps:
            strays = sorted(i for i in m if not 1 <= i <= n)
            if strays:
                raise ValueError(f"{what}: node ids {strays} outside 1..{n}")

    @classmethod
    def from_json(cls, text: str) -> "ScenarioConfig":
        """Parse a config; malformed ones raise ValueError naming the fault."""
        try:
            raw = json.loads(text)
        except RecursionError:
            raise ValueError("scenario config is nested too deeply to read") from None
        raw = _json_object(raw, "scenario config", cls)
        code = _json_object(raw.pop("code", {}), "code", CodeSetup)
        return cls(code=CodeSetup(**code), **raw)

    def to_json(self) -> str:
        # str-mixin enums encode as their values, int keys as strings
        return json.dumps(asdict(self), indent=2)


def _member(kind: type[enum.Enum], value):
    """``kind(value)``; the ValueError echoes ``value`` at a bounded length."""
    try:
        return kind(value)
    except ValueError:
        raise ValueError(f"{brief_repr(value)} is not a valid {kind.__name__}") from None


def _int_keyed(raw, what: str, convert) -> dict:
    """``raw`` as {int key: convert(value)}; raises ValueError naming
    ``what``.  A key is an int (a bool is not) or a string exactly as
    ``str`` writes an int, such as "7" or "-3", the form ``to_json`` writes."""
    if not isinstance(raw, dict):
        raise ValueError(f"{what} must be a JSON object, got {type(raw).__name__}")
    out = {}
    for k, v in raw.items():
        try:
            i = k if type(k) is int else int(k) if type(k) is str else None
        except ValueError:
            i = None
        if i is None or type(k) is str and str(i) != k:
            raise ValueError(f"{what}: key {brief_repr(k)} is not an int")
        try:
            out[i] = convert(v)
        except (TypeError, ValueError) as exc:
            raise ValueError(f"{what}: {exc}") from None
    return out


def _json_object(raw, what: str, target) -> dict:
    """``raw`` as keyword arguments for the dataclass ``target``."""
    if not isinstance(raw, dict):
        raise ValueError(f"{what} must be a JSON object, got {type(raw).__name__}")
    unknown = sorted(set(raw) - {f.name for f in fields(target)})
    if unknown:
        # the first few keys, each at a bounded length without the quotes of a repr
        shown = [brief_repr(k)[1:-1] for k in unknown[:3]] + ["..."] * (len(unknown) > 3)
        raise ValueError(f"unknown {what} key(s): {', '.join(shown)}")
    return raw


@dataclass(frozen=True)
class GenerationStats:
    generation: int
    repaired: tuple[int, ...]
    polluted_block_count: int
    beta_av: float
    beta_prime: float
    gamma: float
    reconstruction_ok: bool


STATS_CSV_HEADER = (
    "generation,repaired,polluted_blocks,beta_av_norm,beta_prime_norm,"
    "gamma_norm,reconstruction_ok"
)


def stats_to_csv(stats: Sequence[GenerationStats]) -> str:
    """The stats as CSV under STATS_CSV_HEADER, in ``capacity._csv``'s dialect."""
    return _csv(STATS_CSV_HEADER, ((s.generation, s.repaired, s.polluted_block_count, s.beta_av,
                                    s.beta_prime, s.gamma, s.reconstruction_ok) for s in stats))


def _draw_schedule(cfg: ScenarioConfig, rng: random.Random) -> list[list[int]]:
    protected = {i for i, b in cfg.behaviors.items() if b is not Behavior.HONEST}
    pool = sorted(set(range(1, cfg.code.n + 1)) - protected)
    t = cfg.code.t
    if len(pool) < t:
        raise ValueError("not enough nodes outside the persistent adversaries")
    return [sorted(rng.sample(pool, t)) for _ in range(cfg.generations)]


def simulate_generations(cfg: ScenarioConfig) -> list[GenerationStats]:
    """Run the configured generations; fully deterministic given the seed."""
    code, t = cfg.code.build(), cfg.code.t
    if not 1 <= t <= code.n - code.kappa:  # each generation repairs t nodes from kappa or more
        raise ValueError(f"code.t must be in 1..n - kappa = 1..{code.n - code.kappa}, got {t}")
    rng = random.Random(cfg.seed)
    obj = ObjectMatrix.random(code.field, t, code.kappa, rng)
    truth = encode_object(obj, code)
    truth_payloads = {b.node_id: b.payload for b in truth}
    stored: dict[int, NodeBlock] = {b.node_id: b for b in truth}
    if cfg.mitigation is Mitigation.DIGESTS:
        digests = FragmentDigestTable.from_blocks(truth)

    schedule = cfg.failure_schedule
    if schedule is None:  # an explicit empty schedule is checked, not replaced
        schedule = _draw_schedule(cfg, rng)
    if len(schedule) < cfg.generations:
        raise ValueError("failure schedule shorter than the generation count")

    stats: list[GenerationStats] = []
    polluted: set[int] = set()  # the ids whose stored payload is not the true one
    for gen in range(cfg.generations):
        failed = sorted(schedule[gen])  # the repair checks the set
        live = [stored[i] for i in sorted(stored.keys() - failed)]
        behaviors = dict(cfg.behaviors)
        behaviors.update(cfg.behavior_overrides.get(gen, {}))
        repair_seed = rng.randrange(2**32)
        try:
            if cfg.mitigation is Mitigation.DIGESTS:
                new_blocks, report = progressive_repair_with_digests(
                    code, live, failed, behaviors, digests, seed=repair_seed
                )
            else:
                new_blocks, report = collaborative_repair(
                    code,
                    live,
                    failed,
                    behaviors,
                    policy=cfg.policy,
                    assumed_polluters=cfg.assumed_polluters,
                    seed=repair_seed,
                )
        except (RepairFailureError, ValueError) as exc:
            raise type(exc)(f"generation {gen}: {exc}") from exc
        for nb in new_blocks:
            stored[nb.node_id] = nb
            if nb.payload != truth_payloads[nb.node_id]:
                polluted.add(nb.node_id)
            else:
                polluted.discard(nb.node_id)
        beta_av, beta_prime, gamma = (num / den for num, den in report.cost_ratios())
        stats.append(
            GenerationStats(
                generation=gen,
                repaired=tuple(failed),
                polluted_block_count=len(polluted),
                beta_av=beta_av,
                beta_prime=beta_prime,
                gamma=gamma,
                reconstruction_ok=_reconstruction_ok(cfg, truth_payloads, stored, behaviors, rng),
            )
        )
    return stats


def _reconstruction_ok(cfg, truth_payloads, stored, behaviors, rng) -> bool:
    """Whether a collector reading the kappa lowest-id nodes gets the object
    back.  Their columns are Reed-Solomon columns at kappa distinct points,
    so an object and its kappa blocks determine each other: ``collect``
    returns the object exactly when every served payload is the true one."""
    served = behaviors if cfg.pollute_collection else {}
    # every block is served first, so the RNG draws do not depend on the verdict
    answers = [_as_served(stored[i], served, rng) for i in sorted(stored)[: cfg.code.kappa]]
    return all(b.payload == truth_payloads[b.node_id] for b in answers)
