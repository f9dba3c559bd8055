"""Per-layer spans for the traced run.

A Tracer wraps public functions of the library in the namespace each
caller reads the name from (``exactcode.rs_decode`` for the repair
paths, ``scenarios.collaborative_repair`` for the simulator,
``tradeoff.worst_case_capacity`` for the optimizer, ...) and puts the
originals back afterwards; the library itself is never edited.  Spans
are aggregated in memory per name.  A span's self time is its duration
minus the time covered by the spans it encloses.
"""

from __future__ import annotations

import statistics
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass, field
from time import perf_counter

from collabregen import exactcode, gf, scenarios, tradeoff

# (span name, namespace the caller reads the name from, attribute);
# "Class.method" names a method, which callers find on the class.
SITES = (
    ("tradeoff.sweep_curve", tradeoff, "sweep_curve"),
    ("tradeoff.optimize_gamma", tradeoff, "optimize_gamma"),
    ("tradeoff.worst_case_capacity", tradeoff, "worst_case_capacity"),
    ("capacity", tradeoff, "mbr_point"),
    ("capacity", tradeoff, "msr_point"),
    ("capacity", tradeoff, "msr_selfish_bounds"),
    ("gf.rs_decode", gf, "rs_decode"),
    ("gf.rs_decode", exactcode, "rs_decode"),
    ("gf.solve", gf, "FieldMatrix.solve"),
    ("exactcode.collect_robust", exactcode, "collect_robust"),
    ("exactcode.digest_check", exactcode, "FragmentDigestTable.verify"),
    ("exactcode.encode_object", scenarios, "encode_object"),
    ("exactcode.collect", scenarios, "collect"),
    ("exactcode.collaborative_repair", scenarios, "collaborative_repair"),
    (
        "exactcode.progressive_repair_with_digests",
        scenarios,
        "progressive_repair_with_digests",
    ),
    ("scenarios.simulate_generations", scenarios, "simulate_generations"),
)

REPAIR_SPANS = ("exactcode.collaborative_repair", "exactcode.progressive_repair_with_digests")

# Every per-layer metric of the traced run, with its unit.
PER_LAYER_UNITS = {
    "tradeoff.optimize_gamma.calls": "count",
    "tradeoff.optimize_gamma.self_s": "s",
    "tradeoff.point_p50_ms": "ms",
    "tradeoff.point_p90_ms": "ms",
    "tradeoff.worst_case_capacity.calls": "count",
    "tradeoff.worst_case_capacity.self_s": "s",
    "tradeoff.exact_checks_per_point": "ratio",
    "tradeoff.sweep_curve.self_s": "s",
    "capacity.calls": "count",
    "capacity.self_s": "s",
    "gf.rs_decode.calls": "count",
    "gf.rs_decode.self_s": "s",
    "gf.rs_decode.flagged": "count",
    "gf.solve.calls": "count",
    "gf.solve.self_s": "s",
    "gf.elem_mul_ns": "ns",
    "gf.int_mul_ns": "ns",
    "exactcode.encode_object.calls": "count",
    "exactcode.encode_object.self_s": "s",
    "exactcode.collect.calls": "count",
    "exactcode.collect.self_s": "s",
    "exactcode.collaborative_repair.calls": "count",
    "exactcode.collaborative_repair.self_s": "s",
    "exactcode.progressive_repair_with_digests.calls": "count",
    "exactcode.progressive_repair_with_digests.self_s": "s",
    "exactcode.collect_robust.calls": "count",
    "exactcode.collect_robust.self_s": "s",
    "exactcode.digest_checks": "count",
    "exactcode.digest_pass_ratio": "ratio",
    "exactcode.pieces_moved": "count",
    "exactcode.contacts": "count",
    "scenarios.simulate_generations.calls": "count",
    "scenarios.simulate_generations.self_s": "s",
    "trace.overhead_frac": "ratio",
}


@dataclass
class Span:
    """Aggregate of every span of one name."""

    calls: int = 0
    self_s: float = 0.0
    durations: list[float] = field(default_factory=list)
    errors: Counter = field(default_factory=Counter)
    passed: int = 0  # calls that returned True


class Tracer:
    """Spans of every site, or of the sites whose span name is in
    ``names``.  ``pace`` maps a span name to a function called before
    each span of that name, outside the time of every span."""

    def __init__(self, names=None, pace=None):
        self.sites = [site for site in SITES if names is None or site[0] in names]
        self.pace = pace or {}
        self.spans = {name: Span() for name, _, _ in SITES}
        self.pieces_moved = 0
        self.contacts = 0
        self._stack: list[float] = []  # child time of each open span
        self._installed: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        span, stack = self.spans[name], self._stack
        is_repair = name in REPAIR_SPANS
        pace = self.pace.get(name)

        def wrapper(*args, **kwargs):
            if pace:
                paced = perf_counter()
                pace()
                if stack:
                    stack[-1] += perf_counter() - paced
            stack.append(0.0)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                span.errors[type(exc).__name__] += 1
                raise
            finally:
                duration = perf_counter() - start
                span.calls += 1
                span.self_s += duration - stack.pop()
                span.durations.append(duration)
                if stack:
                    stack[-1] += duration
            if result is True:
                span.passed += 1
            if is_repair:
                report = result[1]
                self.pieces_moved += report.total_pieces
                self.contacts += sum(len(c) for c in report.contacted.values())
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self) -> None:
        for name, namespace, attr in self.sites:
            target, key, original = resolve(namespace, attr)
            if original is None:
                raise LookupError(f"{namespace.__name__}.{attr} not found for span {name}")
            setattr(target, key, self._wrap(name, original))
            self._installed.append((target, key, original))

    def uninstall(self) -> None:
        while self._installed:
            target, key, original = self._installed.pop()
            setattr(target, key, original)

    @contextmanager
    def active(self):
        try:
            self.install()
            yield self
        finally:
            self.uninstall()

    def metrics(self) -> dict[str, float]:
        s = self.spans
        out: dict[str, float] = {}
        for name in (
            "tradeoff.optimize_gamma",
            "tradeoff.worst_case_capacity",
            "gf.rs_decode",
            "gf.solve",
            "exactcode.encode_object",
            "exactcode.collect",
            "exactcode.collaborative_repair",
            "exactcode.progressive_repair_with_digests",
            "exactcode.collect_robust",
            "scenarios.simulate_generations",
        ):
            out[f"{name}.calls"] = s[name].calls
            out[f"{name}.self_s"] = s[name].self_s
        out["tradeoff.sweep_curve.self_s"] = s["tradeoff.sweep_curve"].self_s
        p50, p90 = p50_p90(s["tradeoff.optimize_gamma"].durations)
        out["tradeoff.point_p50_ms"] = p50 * 1e3
        out["tradeoff.point_p90_ms"] = p90 * 1e3
        out["tradeoff.exact_checks_per_point"] = ratio(
            s["tradeoff.worst_case_capacity"].calls, s["tradeoff.optimize_gamma"].calls
        )
        out["capacity.calls"] = s["capacity"].calls
        out["capacity.self_s"] = s["capacity"].self_s
        out["gf.rs_decode.flagged"] = s["gf.rs_decode"].errors["DecodeAmbiguityError"]
        digest = s["exactcode.digest_check"]
        out["exactcode.digest_checks"] = digest.calls
        out["exactcode.digest_pass_ratio"] = ratio(digest.passed, digest.calls)
        out["exactcode.pieces_moved"] = self.pieces_moved
        out["exactcode.contacts"] = self.contacts
        return out


def resolve(namespace, attr: str):
    """(object that holds the name, the name, its current value or None)."""
    holder, _, key = attr.rpartition(".")
    target = getattr(namespace, holder) if holder else namespace
    return target, key, vars(target).get(key)


def ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def p50_p90(values: list[float]) -> tuple[float, float]:
    """Median and 90th percentile, interpolated between closest ranks."""
    if len(values) < 2:
        return (values[0], values[0]) if values else (0.0, 0.0)
    return statistics.median(values), statistics.quantiles(values, n=10, method="inclusive")[-1]


def mul_ns(loops: int = 200_000, repeats: int = 5) -> tuple[float, float]:
    """Nanoseconds per GF(2^8) multiply: one FieldElement product and one
    int-level GF.mul, each the median of ``repeats`` fixed loops."""
    F = gf.field(8)
    a, b = F.element(0x53), F.element(0xCA)
    mul, x, y = F.mul, a.value, b.value
    elem, ints = [], []
    for _ in range(repeats):
        start = perf_counter()
        for _ in range(loops):
            a * b
        elem.append(perf_counter() - start)
        start = perf_counter()
        for _ in range(loops):
            mul(x, y)
        ints.append(perf_counter() - start)
    return statistics.median(elem) / loops * 1e9, statistics.median(ints) / loops * 1e9
