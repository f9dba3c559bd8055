"""Closed-form min-cut capacities for collaborative regeneration.

All quantities are exact rationals (``fractions.Fraction``), so bound
values and the characteristic points can be compared with zero
tolerance.  Capacities follow the information-flow cut sums

    single repair:     sum_i min(alpha, (d - i) beta)
    collaborative:     sum_i u_i min(alpha, (d - S_i) beta + (t - u_i) beta')

with S_i the prefix sum of group sizes, and their adversarial variants
where selfish live nodes remove ``L0`` download contributions, selfish
newcomers remove ``l_i`` collaboration contributions, and polluting
nodes cost twice their count (one good equation must offset each
potentially bad one).  The kinds differ only in that cost factor,
``AdversaryProfile.factor``.  ``_budget`` alone turns a profile into cut
arithmetic, which the bounds here and the trade-off search read: a group
of u >= 1 newcomers out of t holds at most (t - u)//f misbehavers, so a
per-group cap above (t - 1)//f counts as (t - 1)//f.  beta's
coefficients are clamped at zero, and a group that leaves beta' a
negative one is rejected, so cut contributions are never negative.

All functions are pure over immutable inputs and safe to evaluate
concurrently.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Optional, Union

RationalLike = Union[int, str, Fraction, float]


class ParameterError(ValueError):
    """A storage-network parameter violates its constraints."""


class PartitionError(ValueError):
    """A data-collector group partition is invalid for (k, t)."""


class AllocationError(ValueError):
    """An adversary allocation is infeasible for the partition."""


class InfeasibleError(ValueError):
    """No parameter choice can satisfy the requested constraint."""


def as_fraction(x: RationalLike) -> Fraction:
    """Exact conversion; floats convert by their binary value.
    ParameterError naming the value for an infinite or NaN float."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, float) and not math.isfinite(x):
        raise ParameterError(f"{x!r} is not a finite number")
    return Fraction(x)


def _check_int(name: str, value, error: type[ValueError]) -> None:
    """``error`` naming ``name`` unless ``value`` is an int (a bool is not)."""
    if type(value) is not int:
        raise error(f"{name} must be an int, got {value!r}")


def fraction_str(x: Fraction) -> str:
    """Render as 'p' or 'p/q' for stable text output."""
    if x.denominator == 1:
        return str(x.numerator)
    return f"{x.numerator}/{x.denominator}"


def _csv(header: str, rows) -> str:
    """The package's one CSV dialect: ``header``, then a line per row, a
    float cell to 9 significant digits, a bool as true/false, a tuple of
    ints as u0|u1|..., any other cell by str."""

    def cell(x) -> str:
        if isinstance(x, float):
            return format(x, ".9g")
        if isinstance(x, bool):
            return "true" if x else "false"
        return "|".join(map(str, x)) if isinstance(x, tuple) else str(x)

    return "\n".join([header, *(",".join(map(cell, row)) for row in rows)]) + "\n"


@dataclass(frozen=True)
class SystemParams:
    """The storage-network tuple (n, k, d, t, B, alpha, beta, beta')."""

    n: int
    k: int
    d: int
    t: int
    B: Fraction
    alpha: Fraction = Fraction(0)
    beta: Fraction = Fraction(0)
    beta_prime: Fraction = Fraction(0)

    def __post_init__(self):
        for name in ("n", "k", "d", "t"):
            _check_int(name, getattr(self, name), ParameterError)
        for name in ("B", "alpha", "beta", "beta_prime"):
            object.__setattr__(self, name, as_fraction(getattr(self, name)))
        if self.t < 1:
            raise ParameterError("t must be at least 1")
        if self.k < 1:
            raise ParameterError("k must be at least 1")
        if self.d < self.k:
            raise ParameterError(f"repair fan-in d={self.d} below k={self.k}")
        if self.k > self.n - self.t:
            raise ParameterError(f"need k <= n - t, got k={self.k}, n-t={self.n - self.t}")
        if self.d > self.n - self.t:
            raise ParameterError(f"need d <= n - t, got d={self.d}, n-t={self.n - self.t}")
        for name in ("B", "alpha", "beta", "beta_prime"):
            if getattr(self, name) < 0:
                raise ParameterError(f"{name} must be nonnegative")

    @classmethod
    def for_repair_network(
        cls,
        k: int,
        d: int,
        t: int,
        B: RationalLike,
        n: Optional[int] = None,
        alpha: RationalLike = 0,
        beta: RationalLike = 0,
        beta_prime: RationalLike = 0,
    ) -> "SystemParams":
        """Build params; n defaults to the minimal d + t."""
        return cls(
            n=n if n is not None else d + t,
            k=k,
            d=d,
            t=t,
            B=B,
            alpha=alpha,
            beta=beta,
            beta_prime=beta_prime,
        )

    @property
    def unit(self) -> Fraction:
        """B/k, the normalization unit used across outputs."""
        return self.B / self.k

    def with_point(
        self, alpha: RationalLike, beta: RationalLike, beta_prime: RationalLike
    ) -> "SystemParams":
        return replace(self, alpha=alpha, beta=beta, beta_prime=beta_prime)


@dataclass(frozen=True)
class GroupPartition:
    """Group sizes u_0..u_{g-1} of the k nodes a data collector contacts,
    one group per repair generation."""

    groups: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "groups", tuple(self.groups))
        for u in self.groups:
            _check_int("group size", u, PartitionError)
        if not self.groups:
            raise PartitionError("partition must have at least one group")
        if any(u < 1 for u in self.groups):
            raise PartitionError("group sizes must be positive")

    @property
    def g(self) -> int:
        return len(self.groups)

    def validate_for(self, k: int, t: int) -> None:
        if sum(self.groups) != k:
            raise PartitionError(f"group sizes sum to {sum(self.groups)}, expected k={k}")
        if any(u > t for u in self.groups):
            raise PartitionError(f"group sizes must be at most t={t}")

    @classmethod
    def all_ones(cls, k: int) -> "GroupPartition":
        return cls((1,) * k)

    @classmethod
    def uniform(cls, k: int, t: int) -> "GroupPartition":
        if k % t:
            raise PartitionError(f"t={t} does not divide k={k}")
        return cls((t,) * (k // t))


class AdversaryKind(str, enum.Enum):
    SELFISH = "selfish"
    POLLUTING = "polluting"


@dataclass(frozen=True)
class AdversaryProfile:
    """Counts of misbehaving nodes: ``among_live`` per generation among the
    contacted live nodes, and per-newcomer-group counts bounded by
    ``per_group_max`` summing to ``total``."""

    kind: AdversaryKind
    among_live: int = 0
    per_group: Optional[tuple[int, ...]] = None
    per_group_max: Optional[int] = None
    total: Optional[int] = None

    def __post_init__(self):
        object.__setattr__(self, "kind", AdversaryKind(self.kind))
        _check_int("among_live", self.among_live, ParameterError)
        if self.among_live < 0:
            raise ParameterError("among_live count must be nonnegative")
        for name in ("per_group_max", "total"):  # each given count, in both modes
            if (value := getattr(self, name)) is not None:
                _check_int(name, value, ParameterError)
                if value < 0:
                    raise ParameterError("per_group_max and total must be nonnegative")
        if self.per_group is not None:
            per = tuple(self.per_group)
            for x in per:
                _check_int("per_group count", x, ParameterError)
            object.__setattr__(self, "per_group", per)
            if any(x < 0 for x in per):
                raise AllocationError("per-group counts must be nonnegative")
            cap = self.per_group_max if self.per_group_max is not None else (max(per) if per else 0)
            object.__setattr__(self, "per_group_max", cap)
            if any(x > cap for x in per):
                raise AllocationError("per-group count exceeds per_group_max")
            tot = sum(per)
            if self.total is not None and self.total != tot:
                raise AllocationError(f"total {self.total} != sum(per_group) {tot}")
            object.__setattr__(self, "total", tot)
        else:
            if self.per_group_max is None:
                object.__setattr__(self, "per_group_max", 0)
            if self.total is None:
                object.__setattr__(self, "total", 0)

    @property
    def factor(self) -> int:
        """Cut-cost multiplier: 2 for polluting (compensation), 1 for selfish."""
        return 2 if self.kind is AdversaryKind.POLLUTING else 1


def _budget(d: int, t: int, adv: Optional[AdversaryProfile]) -> tuple[int, int, int, int]:
    """(f, among_live, cap, total) of a profile, (1, 0, 0, 0) for none:
    the cost factor, the live count, checked against d, the per-group cap
    clamped to the (t - 1)//f misbehavers a group can hold, and the
    newcomer budget."""
    if adv is None:
        return 1, 0, 0, 0
    f, among = adv.factor, adv.among_live
    if f * among > d:
        need = "exceeds" if f == 1 else f"needs {f}*count <="
        raise ParameterError(f"{adv.kind.value} live count {among} {need} d={d}")
    return f, among, min(adv.per_group_max, (t - 1) // f), adv.total


def _live_coefficients(k: int, d: int, factor: int, among_live: int) -> list[int]:
    """beta's coefficient d - factor*among_live - s, clamped at zero, for
    a group that starts at prefix s < k."""
    return [max(0, d - factor * among_live - s) for s in range(k)]


def mincut_single(p: SystemParams) -> Fraction:
    """Cut bound for independent single-node repairs: the collaborative
    bound at t = 1, whatever p.t is."""
    return _capacity(replace(p, t=1), GroupPartition.all_ones(p.k))


def mincut_collab(p: SystemParams, part: GroupPartition) -> Fraction:
    """Cut bound for collaborative repair with the given collector partition."""
    return _capacity(p, part)


def capacity_selfish(p: SystemParams, part: GroupPartition, adv: AdversaryProfile) -> Fraction:
    """Upper bound on storable data with selfish nodes present."""
    return _capacity(p, part, adv, AdversaryKind.SELFISH)


def capacity_polluting(p: SystemParams, part: GroupPartition, adv: AdversaryProfile) -> Fraction:
    """Upper bound on storable data with polluting nodes present."""
    return _capacity(p, part, adv, AdversaryKind.POLLUTING)


def _capacity(
    p: SystemParams,
    part: GroupPartition,
    adv: Optional[AdversaryProfile] = None,
    kind: Optional[AdversaryKind] = None,
) -> Fraction:
    """The cut sum over the groups of ``part`` under a profile (None: no
    adversary), which must be of ``kind`` when one is given: each of a
    group's newcomers in the profile removes ``adv.factor``
    collaborators from it."""
    if kind is not None and (adv is None or adv.kind is not kind):
        raise ParameterError(f"profile kind must be {kind.value}")
    part.validate_for(p.k, p.t)
    per_group = (0,) * part.g
    if adv is not None:
        if adv.per_group is None or len(adv.per_group) != part.g:
            raise AllocationError(f"need one {adv.kind.value} count per group")
        per_group = adv.per_group
    f, among, _, _ = _budget(p.d, p.t, adv)
    live = _live_coefficients(p.k, p.d, f, among)
    total = Fraction(0)
    prefix = 0
    for u, a in zip(part.groups, per_group):
        if u > p.t - f * a:
            raise AllocationError(
                f"group of size {u} infeasible with {a} {adv.kind.value} newcomers (t={p.t})"
            )
        total += u * min(p.alpha, live[prefix] * p.beta + (p.t - f * a - u) * p.beta_prime)
        prefix += u
    return total


def repair_gamma(p: SystemParams) -> Fraction:
    """Total bandwidth to repair one node: d*beta + (t-1)*beta'."""
    return p.d * p.beta + (p.t - 1) * p.beta_prime


def msr_point(p: SystemParams) -> tuple[Fraction, Fraction, Fraction]:
    """Minimum-storage point: alpha = B/k, beta = beta' = (B/k)/(d-k+t),
    where d - k + t >= t >= 1 since SystemParams keeps d >= k."""
    unit = p.unit
    b = unit / (p.d - p.k + p.t)
    return unit, b, b


def mbr_point(p: SystemParams) -> tuple[Fraction, Fraction, Fraction]:
    """Minimum-bandwidth point of the trade-off curve; its denominator
    2d - k + t is at least d + t >= 2."""
    denom = 2 * p.d - p.k + p.t
    unit = p.unit
    alpha = unit * (2 * p.d + p.t - 1) / denom
    beta = unit * 2 / denom
    beta_prime = unit / denom
    return alpha, beta, beta_prime


@dataclass(frozen=True)
class MsrSelfishBounds:
    """Feasible download/collaboration bandwidth at minimum storage when
    selfish nodes participate.  ``beta_exact`` is available only when the
    per-group counts are concrete and (k + total)/t is an integer."""

    beta_exact: Optional[Fraction]
    beta_min: Fraction
    beta_max: Fraction
    beta_prime_min: Fraction
    beta_prime_max: Fraction

    @property
    def exact_formula_applies(self) -> bool:
        return self.beta_exact is not None


def _msr_window(
    p: SystemParams, adv: Optional[AdversaryProfile]
) -> tuple[Fraction, Fraction, Fraction, Fraction]:
    """(beta_min, beta_max, beta'_min, beta'_max) at alpha = B/k, one
    formula for every profile, read off ``_budget``'s (f, L0, cap).

    The smallest feasible beta lies between (B/k)/lo and (B/k)/hi, with
    lo = d - f*L0 - k + t and hi = lo - f*cap; eliminating beta bounds
    beta' by (B/k)*collab/(hi*(t-1)) and (B/k)*(t-1)/(lo*collab), with
    collab = t - 1 - f*cap >= 0.  A nonpositive lo or hi raises
    InfeasibleError, and so does collab = 0 with cap > 0: every peer may
    misbehave.  collab = 0 with cap = 0 is t = 1, where nobody
    collaborates and the beta' window is (0, 0) under any adversary.
    """
    unit = p.unit
    f, among, cap, _ = _budget(p.d, p.t, adv)
    lo = p.d - f * among - p.k + p.t
    hi = lo - f * cap
    collab = p.t - 1 - f * cap
    if lo <= 0 or hi <= 0:
        raise InfeasibleError("no feasible download bandwidth: effective fan-in too small")
    if collab == 0 and cap > 0:
        raise InfeasibleError("no collaboration bandwidth is defined when every peer may misbehave")
    if collab == 0:
        return unit / lo, unit / hi, Fraction(0), Fraction(0)
    return unit / lo, unit / hi, unit * collab / (hi * (p.t - 1)), unit * (p.t - 1) / (lo * collab)


def msr_selfish_bounds(p: SystemParams, adv: AdversaryProfile) -> MsrSelfishBounds:
    """Bandwidth ranges at alpha = B/k under a selfish adversary.

    The ranges are ``_msr_window``'s, so a per-group cap above t - 1
    counts as t - 1.  With concrete per-group counts and t dividing
    k + total, the exact value (B/k)/((d-L0)-k+(t-l_last)) is returned
    as well, l_last counted at most at that cap; its denominator is then
    at least the window's hi, so positive.
    """
    if adv.kind is not AdversaryKind.SELFISH:
        raise ParameterError("profile kind must be selfish")
    window = _msr_window(p, adv)
    _, among, cap, total = _budget(p.d, p.t, adv)
    beta_exact = None
    if adv.per_group is not None and (p.k + total) % p.t == 0:
        g = (p.k + total) // p.t
        if len(adv.per_group) == g:
            beta_exact = p.unit / (p.d - among - p.k + p.t - min(adv.per_group[g - 1], cap))
    return MsrSelfishBounds(beta_exact, *window)


def polluted_collection_min_storage(p: SystemParams, polluters: int) -> Fraction:
    """Minimum per-node storage B/(k - 2*b0) when polluters may also answer
    data collectors with wrong data.  Exposed as a computed quantity only."""
    _check_int("polluters", polluters, ParameterError)
    if polluters < 0 or 2 * polluters >= p.k:
        raise ParameterError("need 0 <= 2*polluters < k")
    return p.B / (p.k - 2 * polluters)
