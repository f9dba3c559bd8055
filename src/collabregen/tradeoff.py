"""Worst-case capacity search and storage/bandwidth curve optimization.

``worst_case_capacity`` minimizes the cut bound over every admissible
data-collector partition and, under an adversary, over every placement
of the misbehaving-newcomer budget, and returns a minimizing witness,
ties broken toward the lexicographically smallest partition.  One
search serves it (on ints: the rational point scaled by the lcm of its
denominators) and the optimizer (on floats), with a strategy picked
from the shape of the search:

* single-node groups (``fixed_g == k``): a closed form, the budget
  filling the last positions first;
* no budget and a free group count: a closed form, single nodes, then
  one group, then full groups, the best split found in one O(k) scan
  down a plan of the splits laid out when the search is built;
* otherwise a DP over (prefix sum of group sizes, groups used, budget
  left), groups used in the key only when ``fixed_g`` is set, filled
  from the longest prefix down a plan of its states laid out when the
  search is built; a budget left is kept only when the groups before
  can leave it and the groups to come can hold it.

The search reads only (k, d, t), the adversary and ``fixed_g``, so it
is built once per structure and reused by every storage level of a
sweep and every exact check.  Only the search last built is kept, in a
one-entry ``functools.lru_cache``, the module's one piece of mutable
state, so the memory kept is that structure's plan (O(k*g*t) states for
the DP).  A search keeps no state between calls and the cache is
thread-safe: threads on different structures rebuild in turn, each
with a correct search, and threads on one can at worst build it twice.
Errors are not cached: an invalid structure, or a budget no partition
can hold (InfeasibleError), raises on every build; a search never raises.

``optimize_gamma`` minimizes the repair bandwidth gamma = d*beta +
(t-1)*beta' subject to the worst-case capacity reaching the object size.
A 21 x 21 grid over the search window is refined around its best cell
until the last grid's gamma spacing is within the relative ``tolerance``
of the best gamma found.  That bounds the spacing, not the error: the
returned gamma can lie further above the optimum (1.80% at the
minimum-storage point of d=20, k=8, t=2).  The float search is built
from sums, nonnegative multiples and minimums, so it never falls as beta
or beta' grows, even under rounding: a cell is feasible when its search
reaches the floor B*(1 - 1e-12), and every cell at or below, in both
bandwidths, one found infeasible is infeasible too.  An infeasible
search also leaves a cut (Kelley's cutting plane): every built search
carries ``piece``, which turns its witness into (A, P, S), each group's
term counted as alpha where it reaches alpha at that cell and as
c*beta + m*beta' elsewhere, so the witness's value, and so the minimum,
is at most A*beta + P*beta' + S*alpha at every point of every storage
level, and a sweep carries the last two pieces from level to level.  A
cell where one falls below the floor times (1 - 1e-9), less the least
normal float (``_piece_floor``), is infeasible without a search: the
margin covers the float search's rounding at every scale, and no cut is
made below a subnormal floor.  The cells so ruled out are closed
downward, so the rest are closed upward and hold every feasible cell.
Each round walks the rest as a staircase, with no search, to the first
in (gamma, row-major index) order and searches only that cell: a
feasible one is the round's answer, the cell a scan of every cell in
gamma order would meet first, and an infeasible one is ruled out before
the walk runs again.  So a round makes at most one feasible search, and
every decision and every returned point is bit-identical to searching
the cells in gamma order.  Grid searching runs on floats for
speed; every returned point is certified exactly, with no tolerance, by
``worst_case_capacity``, which scales the rational point to integers
(the bound is homogeneous of degree 1) and divides the result once.
"""

from __future__ import annotations

import logging
import sys
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import isfinite, lcm
from numbers import Real
from typing import Optional, Sequence

from .capacity import (
    AdversaryProfile,
    GroupPartition,
    InfeasibleError,
    ParameterError,
    SystemParams,
    _budget,
    _check_int,
    _csv,
    _live_coefficients,
    _msr_window,
    as_fraction,
    mbr_point,
    msr_point,
    msr_selfish_bounds,  # not called here; perfbench/tracing.py wraps tradeoff.msr_selfish_bounds
)

log = logging.getLogger(__name__)

_GRID_POINTS = 21
_MIN_REFINEMENTS = 3
_MAX_REFINEMENTS = 8
_MAX_BOX_EXPANSIONS = 40

# (beta range, beta_prime range) in raw units
BandwidthBox = tuple[tuple[Fraction, Fraction], tuple[Fraction, Fraction]]


@dataclass(frozen=True)
class CurvePoint:
    """One trade-off curve sample, normalized by B/k."""

    alpha_norm: float
    beta_norm: float
    beta_prime_norm: float
    gamma_norm: float
    witness_partition: GroupPartition
    witness_allocation: Optional[tuple[int, ...]]


CSV_HEADER = "alpha_norm,beta_norm,beta_prime_norm,gamma_norm,partition"


def curve_to_csv(points: Sequence[CurvePoint]) -> str:
    """The curve as CSV under CSV_HEADER, in ``capacity._csv``'s dialect."""
    return _csv(CSV_HEADER, ((cp.alpha_norm, cp.beta_norm, cp.beta_prime_norm, cp.gamma_norm,
                              cp.witness_partition.groups) for cp in points))


@dataclass
class SweepConfig:
    """A curve sweep: optimize gamma for each storage level in the grid.

    ``characteristic_range``, unless False, restricts the bandwidth search
    of a fixed-partition sweep to the window between the minimum-bandwidth
    and minimum-storage operating points (the adversary-adjusted ones when
    an adversary is active): its single cut expression would otherwise
    admit a degenerate all-collaboration optimum that every other collector
    partition forbids.  A free-partition sweep searches without the window."""

    params: SystemParams
    adversary: Optional[AdversaryProfile] = None
    alpha_grid: Optional[Sequence[Fraction]] = None
    fixed_g: Optional[int] = None
    tolerance: float = 1e-4
    characteristic_range: bool = True


def characteristic_bandwidth_box(
    p: SystemParams, adversary: Optional[AdversaryProfile] = None
) -> BandwidthBox:
    """Bandwidth window between the characteristic operating points.

    The lower corner is the minimum-bandwidth point.  The upper corner is
    the top of the minimum-storage window (``capacity._msr_window``), one
    formula for every adversary kind with its cost factor (1 selfish,
    2 polluting); an adversary with no misbehaving node gives the plain
    minimum-storage point."""
    _, mbr_beta, mbr_bp = mbr_point(p)
    if adversary is not None and adversary.total == 0 and adversary.among_live == 0:
        adversary = None
    _, hi_beta, _, hi_bp = _msr_window(p, adversary)
    if p.t == 1:
        return (mbr_beta, max(hi_beta, mbr_beta)), (Fraction(0), Fraction(0))
    return (mbr_beta, max(hi_beta, mbr_beta)), (mbr_bp, max(hi_bp, mbr_bp))


def _cut_search(
    p: SystemParams, adversary: Optional[AdversaryProfile], fixed_g: Optional[int]
):
    """The worst-case search for one structure (see the module docstring):
    ``search(alpha, beta, beta_prime) -> (value, groups, allocation)``,
    which never raises; building it raises InfeasibleError when no
    partition can hold the budget.  The search reads only k, d and t of
    ``p``, so every point of a structure shares one.
    ``fixed_g`` is checked first: the cache would take 2.0 for the key 2."""
    if fixed_g is not None:
        _check_int("fixed_g", fixed_g, ParameterError)
    return _build_search(p.k, p.d, p.t, adversary, fixed_g)


@lru_cache(maxsize=1)
def _build_search(
    k: int, d: int, t: int, adversary: Optional[AdversaryProfile], fixed_g: Optional[int]
):
    if fixed_g is not None and not (1 <= fixed_g <= k <= fixed_g * t):
        raise ParameterError(
            f"fixed group count g={fixed_g} incompatible with k={k}, t={t}"
        )
    if adversary is not None and adversary.per_group is not None:
        raise ParameterError(
            "worst-case search allocates the budget itself; pass per_group=None"
        )
    f, among, cap, total = _budget(d, t, adversary)  # cap: the most one group holds
    coeffs = _live_coefficients(k, d, f, among)  # beta's factor at prefix s
    g = fixed_g or 0  # groups in all; 0 when g is free, as is every groups used

    def most(groups, nodes):
        # The most budget `groups` groups of `nodes` nodes in all can hold:
        # a group of u holds at most min(cap, (t - u)//f), so cap*groups and
        # (groups*t - nodes)//f in all; with g free, single nodes hold cap.
        if fixed_g is None:
            return cap * nodes
        return min(cap * groups, (groups * t - nodes) // f)

    # The one admissibility rule, for every strategy: some partition holds
    # the budget exactly when g groups of k nodes can, so no search raises.
    if total > most(g, k):
        raise InfeasibleError("adversary budget exceeds what the groups can hold")

    def piece(alpha, beta, beta_prime, groups, alloc):
        # (A, P, S) of the witness (groups, alloc) found at this point: a
        # group of u at prefix s holding a misbehavers adds u*alpha when
        # c*beta + m*beta' reaches alpha here, else u*(c*beta + m*beta').
        # Each term of the witness is at most what its group adds, so its
        # value, and so the minimum, is at most A*beta + P*beta' + S*alpha
        # at every nonnegative point.
        A = P = S = s = 0
        for u, a in zip(groups, alloc):
            c, m = coeffs[s], t - f * a - u
            if c * beta + m * beta_prime >= alpha:
                S += u
            else:
                A, P = A + u * c, P + u * m
            s += u
        return A, P, S

    if fixed_g == k:
        ones = (1,) * k
        # Fill the last positions first: cap in each of the last total // cap,
        # the remainder just before them.  With T_i(a) = min(c_i*beta +
        # (t-1-f*a)*beta', alpha), min(., alpha) is concave, so the saving
        # T_i(a-1) - T_i(a) never falls as a grows, nor as i grows (c_i never
        # rises).  So sorting an allocation into non-decreasing order never
        # lowers the saving, nor then does moving a unit from i to a later j
        # below cap, which ends here; and this is the lexicographically
        # smallest admissible allocation, the witness ties go to.
        alloc = tuple(min(cap, max(0, total - cap * (k - 1 - i))) for i in range(k))
        terms = [(c, t - f * a - 1) for c, a in zip(coeffs, alloc)]

        # no early exit: sum() compensates (3.12+), and a running sum can differ in the last bit
        def single_nodes(alpha, beta, beta_prime):
            values = [x if (x := c * beta + m * beta_prime) < alpha else alpha for c, m in terms]
            return sum(values), ones, alloc

        single_nodes.piece = piece
        return single_nodes

    if not total and fixed_g is None:
        # The lexicographically smallest worst partition is (1,)*a + (r,) + (t,)*b,
        # r = (k-a-1) % t + 1, for the largest a of least value (TestFreePartitions).
        plan = [(a, (k - a - 1) % t + 1, coeffs[a]) for a in range(k - 1, -1, -1)]

        def partitions(alpha, beta, beta_prime):
            collab = [c * beta_prime for c in range(t)]
            full = collab[t - 1]
            head, acc = [0], 0  # head[a]: single nodes at prefixes 0..a-1
            for c in coeffs:
                x = c * beta + full
                acc += x if x < alpha else alpha
                head.append(acc)
            low, tail = None, 0  # tail: the full groups after the group of r
            for a, r, c in plan:
                x = c * beta + collab[t - r]
                cand = head[a] + r * (m := x if x < alpha else alpha) + tail
                if low is None or cand < low:
                    low, lead, size = cand, a, r
                if r == t:  # from a - 1 on, a full group starts at a
                    tail += t * m
            groups = (1,) * lead + (size,) + (t,) * ((k - lead - size) // t)
            return low, groups, (0,) * len(groups)

        partitions.piece = piece
        return partitions

    step = 0 if fixed_g is None else 1

    # (prefix, groups used, budgets left, [(u, the most the groups after it
    # hold, the most it holds)]) of every state the DP fills, longest prefix
    # first.  A budget left is kept only when the groups before can leave
    # it and the groups to come can hold it: every state the start reaches
    # and can complete is kept, and each lookup of a kept state lands on one;
    # the start (0, 0, total) is kept, as total <= most(g, k).
    plan = []
    for s in range(k - 1, -1, -1):
        if fixed_g is None:
            layer = range(1)
        else:  # the groups left must fit the nodes left
            layer = range(max(-(-s // t), g - k + s), min(s, g + (s - k) // t) + 1)
        for parts in layer:
            rest = g - parts - 1  # the groups after this one when g is fixed
            u_lo, u_hi = 1, min(t, k - s)
            if fixed_g is not None:
                u_lo, u_hi = max(u_lo, k - s - rest * t), min(u_hi, k - s - rest)
            budgets = range(max(0, total - most(parts, s)), min(total, most(rest + 1, k - s)) + 1)
            sizes = [(u, most(rest, k - s - u), min(cap, (t - u) // f))
                     for u in range(u_lo, u_hi + 1)]
            plan.append((s, parts, budgets, sizes))

    def general(alpha, beta, beta_prime):
        # memo[(prefix, groups used, budget left)] = (value, (u, a)), filled
        # down the plan (recursing once per group would overflow Python's
        # stack at large k)
        memo: dict[tuple[int, int, int], tuple] = {(k, g, 0): (0, None)}
        collab = [c * beta_prime for c in range(t)]
        for s, parts, budgets, sizes in plan:
            live = coeffs[s] * beta
            for r in budgets:
                low = arg = None
                for u, room, top in sizes:
                    for a in range(max(0, r - room), min(top, r) + 1):
                        sub = memo[(s + u, parts + step, r - a)][0]
                        x = live + collab[t - f * a - u]
                        cand = u * (x if x < alpha else alpha) + sub
                        if low is None or cand < low:
                            low, arg = cand, (u, a)
                memo[(s, parts, r)] = (low, arg)

        value = memo[(0, 0, total)][0]
        groups, alloc = [], []
        s, parts, r = 0, 0, total
        while s < k:
            u, a = memo[(s, parts, r)][1]
            groups.append(u)
            alloc.append(a)
            s, parts, r = s + u, parts + step, r - a
        return value, tuple(groups), tuple(alloc)

    general.piece = piece
    return general


def worst_case_capacity(
    p: SystemParams,
    adversary: Optional[AdversaryProfile] = None,
    fixed_g: Optional[int] = None,
) -> tuple[Fraction, GroupPartition, Optional[tuple[int, ...]]]:
    """Minimum cut bound over partitions and adversary allocations.

    Returns (value, witness partition, witness allocation); the
    allocation is None when no adversary is given.  Raises
    InfeasibleError, from building the structure's search, when no
    partition can hold the budget under the per-group cap.

    The search runs exactly, on Python ints.  Every term of the bound is
    u * min(c*beta + m*beta', alpha) with nonnegative integers u, c, m,
    and the bound is their sum, so it is homogeneous of degree 1 in
    (alpha, beta, beta').  Scaling all three by L, the lcm of their
    denominators, multiplies every candidate by L and keeps every strict
    comparison that picks an argmin or breaks a tie; the search on the
    scaled ints returns L times the value, with the same witness.
    """
    search = _cut_search(p, adversary, fixed_g)
    a, b, bp = p.alpha, p.beta, p.beta_prime
    scale = lcm(a.denominator, b.denominator, bp.denominator)
    value, groups, alloc = search(
        a.numerator * (scale // a.denominator),
        b.numerator * (scale // b.denominator),
        bp.numerator * (scale // bp.denominator),
    )
    return Fraction(value, scale), GroupPartition(groups), None if adversary is None else alloc


def supremum_capacity(
    p: SystemParams,
    adversary: Optional[AdversaryProfile] = None,
    fixed_g: Optional[int] = None,
) -> Fraction:
    """Worst-case capacity limit as beta, beta' grow without bound.

    Integer bandwidth coefficients mean any positive coefficient saturates a
    term at alpha once beta = beta' = max(alpha, 1)."""
    big = max(p.alpha, Fraction(1))
    value, _, _ = worst_case_capacity(
        p.with_point(p.alpha, big, big), adversary, fixed_g
    )
    return value


def default_alpha_grid(
    p: SystemParams,
    points: int = 64,
    alpha_min: Optional[Fraction] = None,
    alpha_max: Optional[Fraction] = None,
) -> list[Fraction]:
    """Evenly spaced exact storage levels from minimum storage to the
    minimum-bandwidth storage level."""
    _check_int("points", points, ParameterError)
    if points < 1:
        raise ParameterError("grid needs at least one point")
    lo = as_fraction(alpha_min) if alpha_min is not None else p.unit
    hi = as_fraction(alpha_max) if alpha_max is not None else mbr_point(p)[0]
    if hi < lo:
        raise ParameterError("alpha grid upper end below lower end")
    if points == 1:
        return [lo]
    step = (hi - lo) / (points - 1)
    return [lo + step * i for i in range(points)]


def _piece_floor(floor: float) -> float:
    """The float a witness's piece, evaluated at a cell, must fall below to
    rule the cell out against ``floor``: low enough by 1e-9 of the floor
    for the rounding of the search's sums, and by the least normal float
    for their underflow, so that no cut is made below a subnormal floor."""
    return floor * (1.0 - 1e-9) - sys.float_info.min


def _grid_search(search, alpha, B, d, t, bounds, warm=None, tolerance=1e-4, cuts=None):
    """Refined grid minimization of gamma over the feasible region.

    ``bounds`` is ((b_min, b_max), (p_min, p_max)); refinement windows
    are clipped back into it.  Each round returns the feasible cell of
    smallest (gamma, row-major index), the cell a scan in gamma order
    would meet first.  A cell is ruled out, infeasible without a search,
    when it lies at or below, in both bandwidths, one found infeasible
    (``search`` never falls as either bandwidth grows, even in floats),
    or where one of ``cuts`` is below ``_piece_floor`` of the floor.
    The ruled-out cells are closed downward, so the rest hold every
    feasible cell and a staircase walk that makes no search finds the
    first of them in that order.  Only that cell is searched: a feasible
    one is the round's answer, an infeasible one is ruled out and the
    walk runs again.  ``cuts`` (empty when not given) holds the
    (A, P, S) pieces of the last two infeasible witnesses of ``search``,
    from any storage level, and is updated in place when ``search``
    carries ``piece``.  A search without it (every built one has it)
    rules out only the cells below one found infeasible, so its walk
    searches the others in gamma order.  Refining stops once the last
    grid's spacing in gamma is at most ``tolerance`` times the best
    gamma found, or after the last refinement; the best gamma can still
    lie further above the optimum than that."""
    feas_floor = B * (1.0 - 1e-12)
    cut = _piece_floor(feas_floor)
    (b_min, b_max), (p_min, p_max) = bounds
    dead = []  # the cells found infeasible that can still rule one out
    piece = getattr(search, "piece", None)
    cuts = [] if cuts is None else cuts

    def ruled_out(b, bp):
        for x, y in dead:
            if b <= x and bp <= y:
                return True
        for A, P, S in cuts:
            if A * b + P * bp + S * alpha < cut:
                return True
        return False

    def feasible(b, bp):  # searched; an infeasible cell is recorded
        value, groups, alloc = search(alpha, b, bp)
        if value >= feas_floor:
            return True
        dead.append((b, bp))
        if piece is not None:
            cuts[:] = [piece(alpha, b, bp, groups, alloc), *cuts[:1]]
        return False

    best = None  # (gamma, beta, beta_prime)
    if warm is not None and b_min <= warm[0] <= b_max and p_min <= warm[1] <= p_max:
        if not ruled_out(*warm) and feasible(*warm):
            best = (d * warm[0] + (t - 1) * warm[1], warm[0], warm[1])

    b_lo, b_hi = b_min, b_max
    p_lo, p_hi = p_min, p_max
    pts = _GRID_POINTS
    for round_no in range(_MAX_REFINEMENTS + 1):
        bs = [b_lo + (b_hi - b_lo) * i / (pts - 1) for i in range(pts)]
        if t > 1 and p_hi > p_lo:
            ps = [p_lo + (p_hi - p_lo) * i / (pts - 1) for i in range(pts)]
        else:
            ps = [p_lo]
        dead[:] = [(x, y) for x, y in dead if x >= b_lo and y >= p_lo]
        while True:
            # Staircase walk from (smallest b, largest bp): a cell not ruled
            # out becomes the candidate and steps down in bp, a ruled-out
            # one steps right in b.  A cell that cannot beat the candidate
            # in (gamma, row-major index), the order of a stable sort by
            # gamma, steps down unchecked; a best from before this round
            # wins all its ties.
            top, row = best, None  # row: of the candidate found this walk
            i, j = 0, len(ps) - 1
            while i < len(bs) and j >= 0:
                b, bp = bs[i], ps[j]
                gamma = d * b + (t - 1) * bp
                if top is not None and (gamma > top[0] or gamma == top[0] and i != row):
                    j -= 1
                elif ruled_out(b, bp):
                    i += 1
                else:
                    top, row = (gamma, b, bp), i
                    j -= 1
            if row is None or feasible(top[1], top[2]):
                best = top
                break
        if best is None:
            return None  # window holds nothing feasible
        sb = (b_hi - b_lo) / (pts - 1)
        sp = (p_hi - p_lo) / (pts - 1) if len(ps) > 1 else 0.0
        err = d * sb + (t - 1) * sp
        if round_no >= _MIN_REFINEMENTS and best[0] > 0 and err <= tolerance * best[0]:
            break
        b_lo = max(b_min, best[1] - 2 * sb)
        b_hi = min(b_max, best[1] + 2 * sb)
        p_lo = max(p_min, best[2] - 2 * sp)
        p_hi = min(p_max, best[2] + 2 * sp)
    return best


def _check_tolerance(tolerance) -> None:
    """ParameterError unless ``tolerance`` is a finite nonnegative number
    (a bool is not)."""
    if isinstance(tolerance, bool) or not isinstance(tolerance, Real) or not (
        isfinite(tolerance) and tolerance >= 0
    ):
        raise ParameterError(f"tolerance must be finite and nonnegative, got {tolerance!r}")


def _search_float(name: str, value: Fraction) -> float:
    """A positive ``value`` as the float the grid search runs on;
    ParameterError when that overflows or underflows to 0."""
    try:
        out = float(value)
    except OverflowError:
        raise ParameterError(f"{name} overflows a float") from None
    if out == 0:
        raise ParameterError(f"{name} underflows to 0 as a float")
    return out


def optimize_gamma(
    p: SystemParams,
    adversary: Optional[AdversaryProfile],
    alpha: Fraction,
    fixed_g: Optional[int] = None,
    tolerance: float = 1e-4,
    bandwidth_box: Optional[BandwidthBox] = None,
    _warm: Optional[tuple[float, float]] = None,
    _cuts: Optional[list] = None,
) -> CurvePoint:
    """Minimize gamma at fixed storage, subject to worst-case capacity >= B.

    Searches beta, beta' >= 0 by default; ``bandwidth_box`` restricts the
    search window instead.  The point returned reaches B exactly (B = 0
    gives the zero CurvePoint, after every check of the structure and box).
    Raises InfeasibleError (an exit path, not a crash) when building the
    search does, alpha is below B/k, the window holds no feasible point or
    the best one cannot be certified at B; ParameterError when alpha is
    negative, a box end is below its start, or alpha or a positive B has
    no positive finite float, or ``tolerance`` is not a finite nonnegative
    number.  Every window searched shares ``_cuts`` (``_grid_search``'s
    ``cuts``), a new list when not given."""
    _check_tolerance(tolerance)
    alpha = as_fraction(alpha)
    if alpha < 0:
        raise ParameterError("alpha must be nonnegative")
    search = _cut_search(p, adversary, fixed_g)
    if bandwidth_box is not None and any(hi < lo for lo, hi in bandwidth_box):
        raise ParameterError("bandwidth_box has an end below its start")
    unit = p.unit
    if p.B == 0:
        return CurvePoint(0.0, 0.0, 0.0, 0.0, GroupPartition.all_ones(p.k), None)
    B_f = _search_float("object size B", p.B)
    if alpha < unit:
        raise InfeasibleError(f"alpha={float(alpha):.6g} below minimum storage B/k")
    alpha_f = _search_float("storage level alpha", alpha)

    # A given box is searched once.  The open window is searched until its
    # best point lies off both upper edges, which double otherwise, or until
    # both edges reach alpha with nothing feasible: every term that can grow
    # is saturated at the top corner, the walk's last cell, from then on.
    window, rounds = bandwidth_box, 1
    if bandwidth_box is None:
        _, mbr_beta, _ = mbr_point(p)
        _, _, msr_bp = msr_point(p)
        window = ((0, 2.0 * float(mbr_beta)), (0, 2.0 * float(msr_bp) if p.t > 1 else 0))
        rounds = _MAX_BOX_EXPANSIONS
    (lo_b, hi_b), (lo_p, hi_p) = ((float(lo), float(hi)) for lo, hi in window)
    cuts = [] if _cuts is None else _cuts
    for _ in range(rounds):
        bounds = ((lo_b, hi_b), (lo_p, hi_p))
        best = _grid_search(search, alpha_f, B_f, p.d, p.t, bounds,
                            warm=_warm, tolerance=tolerance, cuts=cuts)
        if best is not None and best[1] <= hi_b * 0.98 and best[2] <= hi_p * 0.98:
            break
        if best is None and hi_b >= alpha_f and (hi_p >= alpha_f or p.t == 1):
            break
        hi_b, hi_p = hi_b * 2.0, hi_p * 2.0
    if best is None:
        raise InfeasibleError("no feasible bandwidth in the search window")

    # Certify at B exactly; nudge a marginal float point by the grid's floor.
    b, bp = Fraction(best[1]), Fraction(best[2])
    for _ in range(4):
        point = p.with_point(alpha, b, bp)
        value, wpart, walloc = worst_case_capacity(point, adversary, fixed_g)
        if value >= p.B:
            break
        b *= 1 + Fraction(1, 10**12)
        bp *= 1 + Fraction(1, 10**12)
    else:
        raise InfeasibleError("could not certify a feasible point")

    # Never end up above the warm pair from the previous storage level: it is
    # recertified here, and taken if it reaches B.
    if _warm is not None:
        warm_gamma = p.d * _warm[0] + (p.t - 1) * _warm[1]
        if float(p.d * b + (p.t - 1) * bp) > warm_gamma:
            wb, wbp = Fraction(_warm[0]), Fraction(_warm[1])
            value, wpart2, walloc2 = worst_case_capacity(
                p.with_point(alpha, wb, wbp), adversary, fixed_g
            )
            if value >= p.B:
                b, bp, wpart, walloc = wb, wbp, wpart2, walloc2

    beta_n = float(b / unit)
    bp_n = float(bp / unit)
    return CurvePoint(
        alpha_norm=float(alpha / unit),
        beta_norm=beta_n,
        beta_prime_norm=bp_n,
        gamma_norm=p.d * beta_n + (p.t - 1) * bp_n,
        witness_partition=wpart,
        witness_allocation=walloc,
    )


def sweep_curve(cfg: SweepConfig) -> list[CurvePoint]:
    """One CurvePoint per feasible grid storage level, gamma non-increasing.

    The tolerance and the structure are checked once, before any level,
    so a budget no partition can hold raises InfeasibleError.  The
    previous point's bandwidth pair seeds the next optimization: it
    stays feasible as storage grows, which pins down monotonicity.  The
    witness pieces found so far (``_grid_search``'s ``cuts``) carry over
    too.  Infeasible grid points are skipped with a logged reason.
    """
    grid = cfg.alpha_grid if cfg.alpha_grid is not None else default_alpha_grid(cfg.params)
    grid = sorted(as_fraction(a) for a in grid)
    use_box = cfg.characteristic_range and cfg.fixed_g is not None
    box = characteristic_bandwidth_box(cfg.params, cfg.adversary) if use_box else None
    _check_tolerance(cfg.tolerance)
    _cut_search(cfg.params, cfg.adversary, cfg.fixed_g)
    unit = cfg.params.unit
    out: list[CurvePoint] = []
    warm: Optional[tuple[float, float]] = None
    cuts: list = []
    for alpha in grid:
        try:
            point = optimize_gamma(cfg.params, cfg.adversary, alpha, cfg.fixed_g, cfg.tolerance,
                                   box, _warm=warm, _cuts=cuts)
        except InfeasibleError as exc:
            log.info("skipping alpha=%s: %s", float(alpha), exc)
            continue
        out.append(point)
        warm = (point.beta_norm * float(unit), point.beta_prime_norm * float(unit))
    return out
