"""Worst-case capacity DP against brute force, and the gamma optimizer."""

import functools
import gc
import math
import tracemalloc
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from collabregen.capacity import (
    AdversaryKind,
    AdversaryProfile,
    GroupPartition,
    InfeasibleError,
    MsrSelfishBounds,
    ParameterError,
    SystemParams,
    mbr_point,
    mincut_single,
    msr_point,
    msr_selfish_bounds,
)
from collabregen import tradeoff
from collabregen.tradeoff import (
    _GRID_POINTS,
    _MAX_REFINEMENTS,
    SweepConfig,
    _cut_search,
    _grid_search,
    characteristic_bandwidth_box,
    default_alpha_grid,
    optimize_gamma,
    supremum_capacity,
    sweep_curve,
    worst_case_capacity,
)


from oracles import (
    _oracle_check_among_live,
    oracle_characteristic_box,
    oracle_grid_search,
    oracle_msr_selfish_bounds,
    oracle_partition_scan,
    oracle_partitions,
    oracle_search,
    oracle_value,
)


def params(k, d, t, B=0, alpha=0, beta=0, beta_prime=0):
    return SystemParams.for_repair_network(
        k=k, d=d, t=t, B=B, alpha=alpha, beta=beta, beta_prime=beta_prime
    )


def selfish(among=0, maxa=0, total=0):
    return AdversaryProfile(AdversaryKind.SELFISH, among, None, maxa, total)


def polluting(among=0, maxa=0, total=0):
    return AdversaryProfile(AdversaryKind.POLLUTING, among, None, maxa, total)


class TestWorstCaseCapacity:
    def test_t_one_forces_single_partition(self):
        p = params(k=5, d=8, t=1, alpha=F(3, 2), beta=F(1, 4))
        value, part, alloc = worst_case_capacity(p)
        assert value == mincut_single(p)
        assert part == GroupPartition.all_ones(5)
        assert alloc is None

    def test_small_case_equals_enumeration(self):
        p = params(k=4, d=5, t=2, alpha=1, beta=F(1, 3), beta_prime=F(1, 6))
        value, part, _ = worst_case_capacity(p)
        assert value == oracle_value(p, None, None) == F(23, 6)
        assert part == GroupPartition.all_ones(4)  # lexicographically smallest

    def test_min_storage_point_meets_object_size(self):
        p = params(k=32, d=48, t=4, B=32)
        value, _, _ = worst_case_capacity(p.with_point(*msr_point(p)))
        assert value == 32

    def test_budget_that_cannot_be_placed(self):
        p = params(k=4, d=6, t=2, alpha=1, beta=1, beta_prime=1)
        with pytest.raises(InfeasibleError):
            worst_case_capacity(p, selfish(0, maxa=1, total=5))

    def test_fixed_group_count(self):
        p = params(k=4, d=5, t=3, alpha=1, beta=F(1, 3), beta_prime=F(1, 6))
        value, part, _ = worst_case_capacity(p, fixed_g=2)
        assert value == oracle_value(p, None, 2)
        assert part.g == 2

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(st.data())
    def test_matches_oracle_randomized(self, data):
        k = data.draw(st.integers(1, 7))
        t = data.draw(st.integers(1, 4))
        d = data.draw(st.integers(k, k + 4))
        p = params(
            k=k,
            d=d,
            t=t,
            alpha=data.draw(st.integers(0, 6)),
            beta=data.draw(st.integers(0, 3)),
            beta_prime=data.draw(st.integers(0, 3)),
        )
        kind = data.draw(st.sampled_from(["none", "selfish", "polluting"]))
        adv = None
        if kind != "none":
            mk = selfish if kind == "selfish" else polluting
            adv = mk(
                among=data.draw(st.integers(0, d // (2 if kind == "polluting" else 1))),
                maxa=data.draw(st.integers(0, 2)),
                total=data.draw(st.integers(0, 4)),
            )
        expected = oracle_value(p, adv, None)
        if expected is None or (adv and adv.total > adv.per_group_max * k):
            feasible_exists = expected is not None
            if not feasible_exists:
                with pytest.raises(InfeasibleError):
                    worst_case_capacity(p, adv)
                return
        value, part, alloc = worst_case_capacity(p, adv)
        assert value == expected
        # the witness must achieve the value under the same term rules
        f = adv.factor if adv else 1
        among = adv.among_live if adv else 0
        walloc = alloc if alloc is not None else (0,) * part.g
        check = F(0)
        prefix = 0
        for u, a in zip(part.groups, walloc):
            bw = max(0, d - f * among - prefix) * p.beta
            bw += max(0, t - f * a - u) * p.beta_prime
            check += u * min(p.alpha, bw)
            prefix += u
        assert check == value


SEARCH_MODES = {
    "single_nodes": ("ones-noadv", "ones-selfish", "ones-polluting", "ones-capped"),
    "partitions": ("worst",),
    "general": ("dp",),  # the memoised DP; the closed form when no budget and g is free
}


def draw_search_shape(data, modes=sum(SEARCH_MODES.values(), ())):
    """(k, d, t, adversary, fixed_g) for one of ``modes``; the default
    covers every strategy of _cut_search."""
    k = data.draw(st.integers(2, 8))
    t = data.draw(st.integers(2, 4))
    d = data.draw(st.integers(k, k + 4))
    mode = data.draw(st.sampled_from(modes))
    fixed_g = k if mode.startswith("ones") else None
    adv = None
    if mode == "ones-selfish":
        adv = selfish(1, maxa=1, total=data.draw(st.integers(0, k)))
    elif mode == "ones-polluting" and t >= 3:
        adv = polluting(min(1, d // 2), maxa=1, total=data.draw(st.integers(0, k)))
    elif mode == "ones-capped":  # up to 2..3 misbehavers per group, so one can be part-filled
        t = data.draw(st.integers(3, 5))
        maxa = data.draw(st.integers(2, 3))
        mk = data.draw(st.sampled_from([selfish, polluting]))
        adv = mk(1, maxa=maxa, total=data.draw(st.integers(0, k * maxa)))
    elif mode == "dp":  # a budget or a group count below k: the memoised DP
        fixed_g = data.draw(st.sampled_from([None, *range(-(-k // t), k)]))
        mk = data.draw(st.sampled_from([selfish, polluting]))
        adv = mk(data.draw(st.integers(0, 1)), maxa=data.draw(st.integers(0, 2)),
                 total=data.draw(st.integers(0, 4)))
    return k, d, t, adv, fixed_g


class TestSearchAgreesWithOracle:
    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(st.data())
    def test_exact_and_float_search_match_oracle(self, data):
        k, d, t, adv, fixed_g = draw_search_shape(data)
        p = params(
            k=k,
            d=d,
            t=t,
            alpha=data.draw(st.integers(0, 5)),
            beta=data.draw(st.fractions(min_value=0, max_value=2, max_denominator=8)),
            beta_prime=data.draw(st.fractions(min_value=0, max_value=2, max_denominator=8)),
        )
        expected = oracle_search(p, adv, fixed_g)
        # building the search raises exactly when no witness exists, and a
        # search once built raises nothing on nonnegative operands
        if expected is None:
            with pytest.raises(InfeasibleError, match="^adversary budget exceeds"):
                _cut_search(p, adv, fixed_g)
            return
        search = _cut_search(p, adv, fixed_g)
        value, groups, alloc = search(p.alpha, p.beta, p.beta_prime)
        assert (value, groups, alloc) == expected  # the value is oracle_value's
        approx, _, _ = search(float(p.alpha), float(p.beta), float(p.beta_prime))
        assert abs(approx - float(value)) <= 1e-9 * max(1.0, float(value))


LARGE_PRIMES = (999_999_937, 1_000_000_007, 1_000_000_009, 2**31 - 1, 2**61 - 1)


def exact_operands():
    """Nonnegative rationals whose common denominator is large: zeros,
    large coprime denominators, float-derived values down to 2**-60 and
    one subnormal, and simple values nudged by 1 + 1/10**9 (as the
    optimizer's certification does)."""
    return st.one_of(
        st.just(F(0)),
        st.builds(lambda q, x: F(round(x * q), q), st.sampled_from(LARGE_PRIMES),
                  st.floats(0, 3)),
        st.floats(2.0**-60, 3).map(F),
        st.sampled_from([F(2.0**-60), F(5e-324)]),
        st.fractions(0, 3, max_denominator=8).map(lambda x: x * (1 + F(1, 10**9))),
    )


class TestScaledIntSearch:
    """worst_case_capacity runs the search on the point scaled to ints;
    it must return what the same search returns on Fractions."""

    @pytest.mark.parametrize("strategy", SEARCH_MODES)
    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(data=st.data())
    def test_matches_fraction_search(self, strategy, data):
        k, d, t, adv, fixed_g = draw_search_shape(data, SEARCH_MODES[strategy])
        p = params(
            k=k, d=d, t=t,
            alpha=data.draw(exact_operands()),
            beta=data.draw(exact_operands()),
            beta_prime=data.draw(exact_operands()),
        )
        try:
            want = _cut_search(p, adv, fixed_g)(p.alpha, p.beta, p.beta_prime)
        except InfeasibleError:
            with pytest.raises(InfeasibleError):
                worst_case_capacity(p, adv, fixed_g)
            return
        value, part, alloc = worst_case_capacity(p, adv, fixed_g)
        assert type(value) is F and value == want[0]
        assert part.groups == want[1]
        assert alloc == (None if adv is None else want[2])


class TestOneSearchPerStructure:
    """_cut_search reads only (k, d, t) of the params, the adversary and
    fixed_g, and hands every point of a structure the same search."""

    SHAPES = {  # (adversary, fixed_g) at k = 8, t = 3
        "partitions": (None, None),
        "single_nodes": (selfish(1, maxa=1, total=4), 8),
        "general": (polluting(1, maxa=1, total=2), 4),
    }

    @pytest.mark.parametrize("shape", SHAPES)
    def test_every_point_shares_one_search(self, shape):
        adv, fixed_g = self.SHAPES[shape]
        p = params(k=8, d=10, t=3)
        search = _cut_search(p, adv, fixed_g)
        assert search.__name__ == shape
        others = (
            params(k=8, d=10, t=3, B=8),
            p.with_point(F(3, 2), F(1, 7), F(2, 9)),
            params(k=8, d=10, t=3, B=5, alpha=2, beta=1, beta_prime=F(1, 3)),
            SystemParams.for_repair_network(k=8, d=10, t=3, B=8, n=20),
        )
        for other in others:
            assert _cut_search(other, adv, fixed_g) is search
        assert _cut_search(p, AdversaryProfile(**vars(adv)) if adv else None, fixed_g) is search

    def test_each_structure_has_its_own_search(self):
        adv = selfish(1, maxa=1, total=2)
        searches = [
            _cut_search(params(k=6, d=8, t=3), adv, 3),
            _cut_search(params(k=5, d=8, t=3), adv, 3),
            _cut_search(params(k=6, d=9, t=3), adv, 3),
            _cut_search(params(k=6, d=8, t=4), adv, 3),
            _cut_search(params(k=6, d=8, t=3), selfish(1, maxa=1, total=1), 3),
            _cut_search(params(k=6, d=8, t=3), polluting(1, maxa=1, total=1), 3),
            _cut_search(params(k=6, d=8, t=3), None, 3),
            _cut_search(params(k=6, d=8, t=3), adv, 4),
            _cut_search(params(k=6, d=8, t=3), adv, None),
        ]
        assert len({id(search) for search in searches}) == len(searches)

    @pytest.mark.parametrize(
        "p, adv, fixed_g, error, message",
        [
            (params(k=6, d=8, t=2), None, 1, ParameterError,
             "fixed group count g=1 incompatible with k=6, t=2"),
            (params(k=6, d=8, t=3), AdversaryProfile(AdversaryKind.SELFISH, 0, (0, 1)), None,
             ParameterError, "allocates the budget itself"),
            (params(k=6, d=8, t=3), polluting(5), None, ParameterError,
             "polluting live count 5 needs 2"),
            (params(k=6, d=8, t=3), selfish(9), 6, ParameterError, "selfish live count 9 exceeds"),
            (params(k=6, d=8, t=3), selfish(0, maxa=1, total=7), 6, InfeasibleError,
             "^adversary budget exceeds what the groups can hold$"),
            (params(k=6, d=8, t=3), selfish(0, maxa=1, total=7), None, InfeasibleError,
             "^adversary budget exceeds what the groups can hold$"),
        ],
        ids=["fixed_g", "per_group", "polluting_live", "selfish_live", "budget", "budget_dp"],
    )
    def test_errors_are_raised_on_every_call(self, p, adv, fixed_g, error, message):
        # the cache keeps searches, not errors: a second call raises again.
        # A budget no partition can hold is refused as the search is built,
        # for the DP as for single nodes, not by a search.
        for _ in range(2):
            with pytest.raises(error, match=message):
                _cut_search(p, adv, fixed_g)
        with pytest.raises(error, match=message):
            worst_case_capacity(p.with_point(1, 1, 1), adv, fixed_g)


class TestOneSearchKept:
    """_build_search keeps only the search last built: a sweep reuses it,
    and the memory kept is one structure's plan."""

    def test_a_sweep_builds_its_search_once(self):
        p = params(k=8, d=10, t=3, B=8)
        cfg = SweepConfig(p, selfish(1, maxa=1, total=4), default_alpha_grid(p, points=4), fixed_g=5)
        tradeoff._build_search.cache_clear()
        points = sweep_curve(cfg)
        info = tradeoff._build_search.cache_info()
        assert info.maxsize == 1 and info.currsize == 1 and info.misses == 1
        # each point makes one lookup in optimize_gamma and at least one exact check
        assert len(points) == 4 and info.hits >= 2 * len(points) - 1

    def test_memory_kept_is_one_structures_plan(self):
        # a DP plan holds O(k*g*t) states; gc.collect() empties the free
        # lists, where the tuples of a plan just dropped would still count
        def traced(*ks):
            for k in ks:
                _cut_search(params(k=k, d=64, t=4), selfish(0, maxa=1, total=k // 2), k // 2)
            gc.collect()
            return tracemalloc.get_traced_memory()[0]

        tradeoff._build_search.cache_clear()
        gc.collect()
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            one = traced(60) - base
            kept = traced(*range(48, 60)) - base
        finally:
            tracemalloc.stop()
        assert one > 100_000  # the 13 plans together hold about 10 times this
        assert kept < 1.5 * one


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.data())
def test_dp_on_budgets_the_groups_can_barely_hold(data):
    # the DP keeps only a budget left that the groups to come can hold and
    # the groups before can leave, at most min(cap, (t - u)//f) in a group of
    # u; budgets up to what g groups hold reach both bounds
    k = data.draw(st.integers(2, 8))
    t = data.draw(st.integers(2, 4))
    d = data.draw(st.integers(k, k + 4))
    fixed_g = data.draw(st.sampled_from([None, *range(-(-k // t), k)]))
    mk = data.draw(st.sampled_from([selfish, polluting]))
    f = 1 if mk is selfish else 2
    maxa = data.draw(st.integers(1, 3))
    most = min(maxa, (t - 1) // f) * (k if fixed_g is None else fixed_g)
    adv = mk(data.draw(st.integers(0, 1)), maxa=maxa,
             total=data.draw(st.integers(int(fixed_g is None), max(1, most + 1))))
    operand = st.one_of(st.integers(0, 6), st.fractions(0, 3, max_denominator=6))
    p = params(k=k, d=d, t=t, alpha=data.draw(operand), beta=data.draw(operand),
               beta_prime=data.draw(operand))
    expected = oracle_search(p, adv, fixed_g)
    if expected is None:  # refused as the search is built, never by a search
        with pytest.raises(InfeasibleError, match="^adversary budget exceeds"):
            _cut_search(p, adv, fixed_g)
        return
    search = _cut_search(p, adv, fixed_g)
    assert search.__name__ == "general"
    assert search(p.alpha, p.beta, p.beta_prime) == expected


class TestSingleNodesAtBenchmarkSize:
    """Single-node groups at k = 9..48, where the oracle is out of reach:
    the witness allocation holds against every single-unit move, and the
    float search tracks the exact value and never falls as a bandwidth
    grows (the staircase walk of _grid_search relies on that)."""

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(st.data())
    def test_closed_form(self, data):
        k = data.draw(st.integers(9, 48))
        t = data.draw(st.integers(2, 8))
        d = data.draw(st.integers(k, k + 16))
        mk = data.draw(st.sampled_from([selfish, polluting]))
        f = 1 if mk is selfish else 2
        maxa = data.draw(st.integers(1, 3))
        cap = min(maxa, (t - 1) // f)
        among = data.draw(st.integers(0, 1))
        adv = mk(among, maxa=maxa, total=data.draw(st.integers(0, k * cap)))
        ratio = st.fractions(0, 2, max_denominator=24)
        alpha = data.draw(st.fractions(0, 4, max_denominator=12))
        beta = alpha * data.draw(ratio) / d
        bp = alpha * data.draw(ratio) / t
        search = _cut_search(params(k=k, d=d, t=t), adv, k)
        value, groups, alloc = search(alpha, beta, bp)
        assert groups == (1,) * k
        assert sum(alloc) == adv.total and all(0 <= a <= cap for a in alloc)

        # (a) the value is the witness's, and no single-unit move lowers it
        terms = [
            [min(alpha, max(0, d - f * among - i) * beta + (t - 1 - f * a) * bp)
             for a in range(cap + 1)]
            for i in range(k)
        ]
        assert value == sum(terms[i][a] for i, a in enumerate(alloc))
        for i, a in enumerate(alloc):
            if a == 0:
                continue
            for j, b in enumerate(alloc):
                if j != i and b < cap:
                    moved = terms[i][a - 1] + terms[j][b + 1] - terms[i][a] - terms[j][b]
                    assert moved >= 0, (i, j)

        # (b) the float search agrees with the exact value
        x, y, z = float(alpha), float(beta), float(bp)
        approx = search(x, y, z)[0]
        assert abs(approx - float(value)) <= 1e-9 * max(1.0, float(value))

        # (c) and never falls as beta or beta' grows, even by one ulp
        assert search(x, grown(data, y), z)[0] >= approx
        assert search(x, y, grown(data, z))[0] >= approx


def grown(data, v):
    """v grown by one ulp, or a float in [v, 2*v + 1]."""
    return data.draw(st.one_of(st.just(math.nextafter(v, math.inf)), st.floats(v, 2 * v + 1)))


class TestFreePartitions:
    """Free partitions with no budget: the closed form of _cut_search
    against the prefix DP of oracle_partitions, at k = 1..64.

    Why the closed form is exact.  Write x = beta, y = beta' and
    c_s = max(0, D - s) with D = d - f*among, so that
    c_s - c_{s+j} = min(j, c_s).  A group of u nodes at prefix s costs
    u*min(c_s*x + (t-u)*y, alpha); call it saturated when
    c_s*x + (t-u)*y >= alpha.  Let P be the lexicographically smallest
    worst partition and a the number of its leading single nodes, so
    that its group at index a (if any) has u_a >= 2.

    1. No group of P at index a or later is saturated.  Otherwise move it
       to the front as single nodes: each costs at most alpha, so no more
       than before; the groups before it start later, so their c_s and
       costs can only fall; the groups after it keep their prefixes.
       The result costs no more and has a single node at index a, where
       P has u_a: it is lexicographically smaller, a contradiction.

    2. Take adjacent groups (u, v) of P at prefixes s and s+u with u >= 2,
       and let E = c_s.  By 1 both are unsaturated, so they cost exactly
       u*(E*x + (t-u)*y) and v*((E - min(u, E))*x + (t-v)*y).
       Splitting u into single nodes is lexicographically smaller, and
       each single node at s+j costs at most c_{s+j}*x + (t-1)*y, so
       the split changes the cost by at most
           sigma = y*u*(u-1) - x*sum_{j<u} min(j, E),
       which must therefore be > 0.  Then y > 0, and
         E >= u:     the sum is u(u-1)/2, so x < 2y;
         1 <= E < u: the sum is E(2u-1-E)/2 >= E*u/2, so x*E < 2(u-1)*y.
       Suppose v < t.
       * u + v <= t: merging into one group of u+v at s, which costs at
         most (u+v)*(E*x + (t-u-v)*y), changes the cost by at most
         v*(x*min(u, E) - 2u*y).  That is < 0 in each case above (and for
         E = 0), so P would not be worst.
       * u + v > t: moving m = t - v nodes from the first group to the
         second gives (w, t) with w = u - m >= 1, lexicographically
         smaller since w < u.  It costs at most w*(E*x + (t-w)*y) +
         t*c_{s+w}*x, a change of at most
           mu = x*(v*min(u, E) - t*min(w, E)) - 2m(t-u)*y.
         E >= u: mu = m(t-u)(x - 2y) <= 0.
         E <= w: mu = -m*E*x - 2m(t-u)*y <= 0.
         w < E < u: with p = u - E, v*E - t*w = m(t-u) - p*v and
         E(2u-1-E) = u(u-1) - p(p-1), so
           m(t-u)*E(2u-1-E) - (v*E - t*w)*u(u-1)
             = p*(v*u(u-1) - m(t-u)(p-1)) >= 0,
         as v > t-u, u > m and u > p-1.  If v*E - t*w > 0, sigma > 0
         (x*E(2u-1-E) < 2y*u(u-1)) then gives x*(v*E - t*w) <
         2m(t-u)*y, so mu < 0; otherwise mu <= 0 directly.
       Every case contradicts the choice of P, so v = t.

    3. So every group after u_a is full: P = (1,)*a + (r,) + (t,)*b with
       2 <= r <= t and r = k - a mod t, that is r = (k-a-1) % t + 1; or P
       is all ones, which is the case a = k-1 (r = 1) of the same form.
       A candidate with r = 1 and a < k-1 repeats the partition of a+1,
       and of two other candidates the one with more leading ones is
       lexicographically smaller.  So P is the candidate of least value
       with the largest a: the one a scan down from a = k-1 keeps when
       it replaces its best only on a strict drop.  The DP takes the
       smallest first group of least cost at every prefix, which gives
       P as well, so value and partition agree exactly.  Floats add the
       same terms in another order, within 1e-12 relative.
    """

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(st.data())
    def test_closed_form_matches_prefix_dp(self, data):
        k = data.draw(st.one_of(st.integers(1, 8), st.integers(9, 64)))  # t > k is common
        t = data.draw(st.integers(1, 9))
        d = data.draw(st.integers(k, k + 16))
        mk = data.draw(st.sampled_from([None, selfish, polluting]))
        adv = None  # no adversary, or one among the live nodes only
        if mk is not None:
            adv = mk(among=data.draw(st.integers(0, d if mk is selfish else d // 2)))
        alpha = data.draw(st.fractions(F(1, 12), 4, max_denominator=12))

        def bandwidth(n):  # near alpha/n, a simple fraction, or zero
            near = st.fractions(F(1, 24), 2, max_denominator=24).map(lambda q: alpha * q / n)
            simple = st.fractions(F(1, 4), 2, max_denominator=4)
            return data.draw(st.one_of(near, simple, st.just(F(0))))

        beta, bp = bandwidth(d), bandwidth(t)
        want = oracle_partitions(params(k=k, d=d, t=t), adv, alpha, beta, bp)
        search = _cut_search(params(k=k, d=d, t=t), adv, None)
        assert search(alpha, beta, bp) == want
        approx = search(float(alpha), float(beta), float(bp))[0]
        assert math.isclose(approx, float(want[0]), rel_tol=1e-12)

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(st.data())
    def test_scan_matches_the_earlier_scan_exactly(self, data):
        # the scan runs from a plan built with the search, in the same float
        # operations as oracles.oracle_partition_scan: equal to the last bit
        k = data.draw(st.one_of(st.integers(1, 8), st.integers(9, 64)))
        t = data.draw(st.integers(1, 9))
        d = data.draw(st.integers(k, k + 16))
        mk = data.draw(st.sampled_from([None, selfish, polluting]))
        adv = None
        if mk is not None:
            adv = mk(among=data.draw(st.integers(0, d if mk is selfish else d // 2)))
        if data.draw(st.booleans()):
            beta, bp = data.draw(st.integers(0, 50)), data.draw(st.integers(0, 50))
            alpha = data.draw(st.integers(0, 50 * (d + t)))
        else:
            floats = st.floats(0, 4, allow_nan=False, allow_infinity=False)
            beta, bp = data.draw(floats), data.draw(floats)
            # some term's own value, so that it ties with alpha
            c, m = data.draw(st.integers(0, d)), data.draw(st.integers(0, t - 1))
            alpha = data.draw(st.one_of(floats, st.just(c * beta + m * bp)))
        p = params(k=k, d=d, t=t)
        got = _cut_search(p, adv, None)(alpha, beta, bp)
        want = oracle_partition_scan(p, adv, alpha, beta, bp)
        assert got == want and type(got[0]) is type(want[0])


class TestFloatSearchNeverFalls:
    """The free-partition closed form and the DP, on floats, never fall as
    beta or beta' grows, even by one ulp: the staircase walk of
    _grid_search relies on that, and so does its skipping of cells at or
    below one found infeasible.  TestSingleNodesAtBenchmarkSize (c)
    checks single-node groups."""

    @staticmethod
    def assert_never_falls(data, search, d, t):
        alpha = data.draw(st.one_of(st.fractions(F(1, 12), 4, max_denominator=12).map(float),
                                    st.floats(1e-3, 4)))
        ratio = st.one_of(st.fractions(0, 2, max_denominator=24).map(float), st.floats(0, 2))
        beta = alpha * data.draw(ratio) / d
        bp = alpha * data.draw(ratio) / t
        value = search(alpha, beta, bp)[0]
        assert search(alpha, grown(data, beta), bp)[0] >= value
        assert search(alpha, beta, grown(data, bp))[0] >= value

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(st.data())
    def test_free_partitions(self, data):
        k = data.draw(st.one_of(st.integers(1, 8), st.integers(9, 64)))
        t = data.draw(st.integers(1, 9))
        d = data.draw(st.integers(k, k + 16))
        mk = data.draw(st.sampled_from([None, selfish, polluting]))
        adv = None  # no adversary, or one among the live nodes only
        if mk is not None:
            adv = mk(among=data.draw(st.integers(0, d if mk is selfish else d // 2)))
        search = _cut_search(params(k=k, d=d, t=t), adv, None)
        assert search.__name__ == "partitions"
        self.assert_never_falls(data, search, d, t)

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(st.data())
    def test_dp(self, data):
        k = data.draw(st.integers(2, 8))
        t = data.draw(st.integers(2, 4))
        d = data.draw(st.integers(k, k + 4))
        fixed_g = data.draw(st.sampled_from([None, *range(-(-k // t), k)]))
        mk = polluting if t >= 3 and data.draw(st.booleans()) else selfish
        adv = mk(data.draw(st.integers(0, 1)), maxa=data.draw(st.integers(1, 2)),
                 total=data.draw(st.integers(int(fixed_g is None), 4)))  # a budget when g is free
        try:
            search = _cut_search(params(k=k, d=d, t=t), adv, fixed_g)
        except InfeasibleError:  # a budget that cannot be placed
            return
        assert search.__name__ == "general"
        self.assert_never_falls(data, search, d, t)


class TestSearchFloor:
    """The piece of a float search's witness bounds the exact minimum at
    every point, and the grid walk's margin below the floor
    (tradeoff._piece_floor) never rules out a cell whose float search
    reaches the floor."""

    @staticmethod
    def draw_structure(data):
        """(params, adversary, fixed_g, strategy) of one search: every
        strategy, both adversary kinds, fixed and free g."""
        k = data.draw(st.integers(1, 7))
        t = data.draw(st.integers(1, 4))
        d = data.draw(st.integers(max(k, 2), k + 4))  # room for one polluter among live
        mode = data.draw(st.sampled_from(["partitions", "single_nodes", "general"]))
        fixed_g, adv = None, None
        if mode == "partitions":  # no adversary, or one among the live nodes only
            mk = data.draw(st.sampled_from([None, selfish, polluting]))
            if mk is not None:
                adv = mk(among=data.draw(st.integers(0, d // 2)))
        elif mode == "single_nodes":
            fixed_g, t = k, data.draw(st.integers(1, 5))
            mk = data.draw(st.sampled_from([None, selfish, polluting]))
            if mk is not None:
                adv = mk(data.draw(st.integers(0, 1)), maxa=data.draw(st.integers(0, 3)),
                         total=data.draw(st.integers(0, 2 * k)))
        else:  # a budget with groups of any size
            t = data.draw(st.integers(2, 4))
            fixed_g = data.draw(st.sampled_from([None, *range(-(-k // t), k)]))
            mk = polluting if t >= 3 and data.draw(st.booleans()) else selfish
            adv = mk(data.draw(st.integers(0, 1)), maxa=data.draw(st.integers(1, 2)),
                     total=data.draw(st.integers(int(fixed_g is None), 4)))
        return params(k=k, d=d, t=t), adv, fixed_g, mode

    @settings(max_examples=600, deadline=None, derandomize=True)
    @given(st.data())
    def test_witness_piece_is_a_sound_cut(self, data):
        # The piece of a witness found at one cell bounds the exact minimum
        # at every other point, and the grid's rule never rules out a cell
        # whose float search reaches the floor, at any scale: 2**-1063 puts
        # every cell near 1e-320, 2**996 near 1e300.
        p, adv, fixed_g, mode = self.draw_structure(data)
        try:
            search = _cut_search(p, adv, fixed_g)
        except InfeasibleError:  # a budget that cannot be placed
            return
        assert search.__name__ == mode
        scale = data.draw(st.sampled_from([-1063, -20, 0, 20, 996]))
        floats = st.floats(0, 4).map(lambda x: math.ldexp(x, scale))
        cells = st.tuples(floats, floats, floats)
        a1, b1, bp1 = cell = data.draw(cells)
        a2, b2, bp2 = data.draw(st.one_of(st.just(cell), cells))  # often where it was found
        _, groups, alloc = search(a1, b1, bp1)
        A, P, S = search.piece(a1, b1, bp1, groups, alloc)
        exact = A * F(b2) + P * F(bp2) + S * F(a2)
        assert exact >= worst_case_capacity(p.with_point(F(a2), F(b2), F(bp2)), adv, fixed_g)[0]

        full = search(a2, b2, bp2)[0]
        bound = A * b2 + P * bp2 + S * a2
        floor = data.draw(st.one_of(
            st.sampled_from([full, math.nextafter(full, math.inf), bound, bound / (1 - 1e-9)]),
            st.floats(0, 2 * bound + 1),
        ))
        floor = data.draw(st.sampled_from([floor, math.nextafter(floor, math.inf)]))
        if bound < tradeoff._piece_floor(floor):
            assert search(a2, b2, bp2)[0] < floor


def search_window(p, adv, open_box, grow=1):
    """The float bounds optimize_gamma hands to _grid_search: the
    characteristic window, or the open box after ``grow`` doublings."""
    if open_box:
        beta_hi = 2.0 * float(mbr_point(p)[1]) * grow
        bp_hi = 2.0 * float(msr_point(p)[2]) * grow if p.t > 1 else 0.0
        return (0.0, beta_hi), (0.0, bp_hi)
    (lo_b, hi_b), (lo_p, hi_p) = characteristic_bandwidth_box(p, adv)
    return (float(lo_b), float(hi_b)), (float(lo_p), float(hi_p))


BENCHMARK_WALKS = ("collab_t4", "collab_t1", "selfish16_g32", "dp_warm")


class TestGridWalkMatchesSortedScan:
    """_grid_search, which walks the cells nothing rules out and searches
    only the first of them in gamma order, returns what scanning every
    grid cell in gamma order returns (oracles.oracle_grid_search)."""

    @staticmethod
    def draw_structure(data):
        """(params, adversary, search) of one search, every strategy, or
        None when the budget cannot be placed."""
        k = data.draw(st.integers(2, 7))
        t = data.draw(st.integers(1, 4))
        d = data.draw(st.integers(k, k + 4))
        mode = data.draw(st.sampled_from(["free", "ones", "ones-capped", "dp"]))
        fixed_g, adv = None, None
        if mode == "ones":  # single-node groups, at most one misbehaver each
            fixed_g = k
            mk = data.draw(st.sampled_from([None, selfish, polluting]))
            if mk is not None and t >= 3:
                adv = mk(1, maxa=1, total=data.draw(st.integers(0, k)))
        elif mode == "ones-capped":  # single-node groups, up to 2..3 misbehavers each
            fixed_g, t = k, data.draw(st.integers(3, 5))
            maxa = data.draw(st.integers(2, 3))
            mk = data.draw(st.sampled_from([selfish, polluting]))
            adv = mk(1, maxa=maxa, total=data.draw(st.integers(0, k * maxa)))
        elif mode == "dp":  # a budget with groups of any size: the DP
            t = data.draw(st.integers(2, 4))
            fixed_g = data.draw(st.sampled_from([None, *range(-(-k // t), k)]))
            mk = polluting if t >= 3 and data.draw(st.booleans()) else selfish
            adv = mk(data.draw(st.integers(0, 1)), maxa=data.draw(st.integers(1, 2)),
                     total=data.draw(st.integers(1, 3)))
        p = params(k=k, d=d, t=t, B=k)
        try:
            return p, adv, _cut_search(p, adv, fixed_g)
        except InfeasibleError:  # a budget that cannot be placed
            return None

    @staticmethod
    def draw_args(data, p, adv, search):
        """The arguments of one _grid_search call on ``search``: a storage
        level, a window (grown as optimize_gamma grows it), maybe a warm
        start, and a tolerance."""
        level = data.draw(st.fractions(min_value=0, max_value=1, max_denominator=12))
        alpha = 1 + level * (mbr_point(p)[0] - 1)
        grow = 2 ** data.draw(st.integers(0, 2))
        try:
            bounds = search_window(p, adv, data.draw(st.booleans()), grow)
        except (InfeasibleError, ParameterError):  # no characteristic window
            bounds = search_window(p, adv, True, grow)
        warm = None
        if data.draw(st.booleans()):
            (b_lo, b_hi), (p_lo, p_hi) = bounds
            x, y = data.draw(st.tuples(*[st.floats(0, 1.1)] * 2))
            warm = (b_lo + x * (b_hi - b_lo), p_lo + y * (p_hi - p_lo))
        tolerance = data.draw(st.sampled_from([1e-2, 1e-3, 1e-4]))
        return search, float(alpha), float(p.B), p.d, p.t, bounds, warm, tolerance

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(st.data())
    def test_real_searches(self, data):
        structure = self.draw_structure(data)
        if structure is not None:
            p, adv, search = structure
            args = self.draw_args(data, p, adv, search)
            assert _grid_search(*args) == oracle_grid_search(*args)

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(st.data())
    def test_one_feasible_search_per_round(self, data):
        # A round searches only the first cell nothing rules out until one
        # is feasible, so it makes at most one feasible search, as the
        # sorted scan does, and the scan makes one only when it improves.
        structure = self.draw_structure(data)
        if structure is None:
            return
        p, adv, search = structure
        args = self.draw_args(data, p, adv, search)
        floor = args[2] * (1.0 - 1e-12)
        feasible, answer = {}, {}  # the feasible cells each side searched, in order
        for side, walk in (("walk", _grid_search), ("scan", oracle_grid_search)):
            cells = feasible[side] = []

            @functools.wraps(search)  # keeps the search's piece, and so the walk's cuts
            def counted(alpha, b, bp):
                out = search(alpha, b, bp)
                if out[0] >= floor:
                    cells.append((b, bp))
                return out

            answer[side] = walk(counted, *args[1:])
        assert answer["walk"] == answer["scan"]
        assert feasible["walk"] == feasible["scan"]
        assert len(feasible["walk"]) <= _MAX_REFINEMENTS + 1 + (args[6] is not None)

    @settings(max_examples=50, deadline=None, derandomize=True)
    @given(st.data())
    def test_cuts_shared_across_levels(self, data):
        # One cut list passed from call to call, as a sweep passes it from
        # level to level, at levels in any order, descending included:
        # every call still gives the sorted scan's answer.
        structure = self.draw_structure(data)
        if structure is None:
            return
        p, adv, search = structure
        calls = [self.draw_args(data, p, adv, search) for _ in range(data.draw(st.integers(2, 5)))]
        order = data.draw(st.sampled_from(["drawn", "ascending", "descending"]))
        if order != "drawn":
            calls.sort(key=lambda args: args[1], reverse=order == "descending")
        cuts = []
        for args in calls:
            assert _grid_search(*args, cuts=cuts) == oracle_grid_search(*args)

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(st.data())
    def test_threshold_sets_with_gamma_ties(self, data):
        # Feasible cells: the union of the quadrants above a few corners.  On
        # a dyadic grid with integer weights, gamma ties are exact and common;
        # a beta scale far above the beta' one ties whole rows.
        d = data.draw(st.integers(1, 3))
        t = data.draw(st.integers(1, 4))
        scale = st.sampled_from([-3, 0, 2, 60])
        sb, sp = (2.0 ** e for e in data.draw(st.tuples(scale, scale)))
        point = st.tuples(st.integers(0, 20), st.integers(0, 20))
        corners = [(x * sb, y * sp)
                   for x, y in data.draw(st.lists(point, min_size=1, max_size=4))]

        def search(alpha, b, bp):
            hit = any(b >= x and bp >= y for x, y in corners)
            return (1.0 if hit else 0.0), (), ()

        warm = data.draw(st.one_of(st.none(), point))
        if warm is not None:
            warm = (warm[0] * sb, warm[1] * sp)
        bounds = ((0.0, 20 * sb), (0.0, 20 * sp))
        tolerance = data.draw(st.sampled_from([1e-1, 1e-4]))
        args = (search, 0.0, 1.0, d, t, bounds, warm, tolerance)
        assert _grid_search(*args) == oracle_grid_search(*args)

    def test_ties_go_to_the_smaller_row_major_index(self):
        # gamma = b + bp; corners (1, 3) and (3, 1) tie at gamma 4, and the
        # smaller beta comes first in row-major order.
        def search(alpha, b, bp):
            return (1.0 if (b >= 1 and bp >= 3) or (b >= 3 and bp >= 1) else 0.0), (), ()

        bounds = ((0.0, 20.0), (0.0, 20.0))
        best = _grid_search(search, 0.0, 1.0, 1, 2, bounds, tolerance=1.0)
        assert best == (4.0, 1.0, 3.0)
        assert best == oracle_grid_search(search, 0.0, 1.0, 1, 2, bounds, tolerance=1.0)

    @staticmethod
    def benchmark_walk(case):
        """(search, t, bounds, warm) of one optimize_gamma walk at d = 48,
        k = 32, B = 32 and alpha = 1.25."""
        t = {"collab_t1": 1, "dp_warm": 2}.get(case, 4)
        p = params(k=32, d=48, t=t, B=32)
        adv = fixed_g = warm = None
        if case == "selfish16_g32":
            adv, fixed_g = selfish(1, maxa=1, total=16), 32
        elif case == "dp_warm":
            adv = selfish(1, maxa=1, total=8)
        search = _cut_search(p.with_point(F(5, 4), 0, 0), adv, fixed_g)
        bounds = search_window(p, adv, open_box=fixed_g is None)
        if case == "dp_warm":
            lower = _cut_search(p.with_point(F(6, 5), 0, 0), adv, fixed_g)
            warm = _grid_search(lower, 1.2, 32.0, 48, t, bounds)[1:]
        return search, t, bounds, warm

    @pytest.mark.parametrize("case", BENCHMARK_WALKS)
    def test_witness_cuts_save_searches(self, case):
        # The walk with the pieces of its infeasible witnesses and the walk
        # without them (a search that carries no piece) give the sorted
        # scan's answer; the first searches some of the cells the second
        # does, in the same order, and every cell it leaves out is infeasible.
        search, t, bounds, warm = self.benchmark_walk(case)
        args = (1.25, 32.0, 48, t, bounds, warm)
        want = oracle_grid_search(search, *args)
        walks = {}
        for cuts in (True, False):
            calls = walks[cuts] = []

            def counted(alpha, b, bp):
                out = search(alpha, b, bp)
                calls.append((b, bp, out[0] >= 32.0 * (1.0 - 1e-12)))
                return out

            if cuts:
                counted = functools.wraps(search)(counted)
            assert _grid_search(counted, *args) == want
        kept, left_out = 0, []
        for call in walks[False]:
            if kept < len(walks[True]) and call == walks[True][kept]:
                kept += 1
            else:
                left_out.append(call)
        assert kept == len(walks[True])
        assert left_out and not any(ok for _, _, ok in left_out)

    @pytest.mark.parametrize("case", BENCHMARK_WALKS)
    def test_no_search_below_an_infeasible_one(self, case):
        search, t, bounds, warm = self.benchmark_walk(case)
        calls = []  # (beta, beta', feasible) of every search, in order

        @functools.wraps(search)  # keeps the search's piece, and so the walk's cuts
        def recorded(alpha, b, bp):
            out = search(alpha, b, bp)
            calls.append((b, bp, out[0] >= 32.0 * (1.0 - 1e-12)))
            return out

        args = (1.25, 32.0, 48, t, bounds, warm)
        assert _grid_search(recorded, *args) == oracle_grid_search(search, *args)
        infeasible = []
        for b, bp, ok in calls:
            assert not any(b <= x and bp <= y for x, y in infeasible), (b, bp)
            if not ok:
                infeasible.append((b, bp))

    @pytest.mark.parametrize("case", BENCHMARK_WALKS)
    def test_a_feasible_search_ends_its_round(self, case, monkeypatch):
        # With the round limit at n, the first n rounds run exactly as with
        # any higher limit, so each limit adds one round's searches.  Past
        # the warm probe only a round's last search can be feasible, and
        # its cell is the best that round returns.
        search, t, bounds, warm = self.benchmark_walk(case)
        before, last = [], None
        for rounds in range(_MAX_REFINEMENTS + 1):
            monkeypatch.setattr(tradeoff, "_MAX_REFINEMENTS", rounds)
            calls = []  # (beta, beta', feasible) of every search, in order

            @functools.wraps(search)  # keeps the search's piece, and so the walk's cuts
            def recorded(alpha, b, bp):
                out = search(alpha, b, bp)
                calls.append((b, bp, out[0] >= 32.0 * (1.0 - 1e-12)))
                return out

            best = _grid_search(recorded, 1.25, 32.0, 48, t, bounds, warm=warm)
            if warm is not None:
                assert calls.pop(0)[:2] == warm
            assert calls[:len(before)] == before
            this_round = calls[len(before):]
            assert not any(ok for _, _, ok in this_round[:-1])
            if this_round and this_round[-1][2]:
                assert best[1:] == this_round[-1][:2]
            else:
                assert best == last or rounds == 0 and best[1:] == warm
            before, last = calls, best

    @pytest.mark.parametrize("case", BENCHMARK_WALKS)
    def test_float_searches_per_round(self, case, monkeypatch):
        # With the round limit at n, the first n rounds run exactly as with
        # any higher limit, so the count differences are per-round counts.
        search, t, bounds, warm = self.benchmark_walk(case)
        counts = []
        for rounds in range(_MAX_REFINEMENTS + 1):
            monkeypatch.setattr(tradeoff, "_MAX_REFINEMENTS", rounds)
            calls = []

            @functools.wraps(search)  # keeps the search's piece, and so the walk's cuts
            def counted(*args):
                calls.append(args)
                return search(*args)

            _grid_search(counted, 1.25, 32.0, 48, t, bounds, warm=warm)
            counts.append(len(calls))
        per_round = [counts[0] - (warm is not None)]
        per_round += [b - a for a, b in zip(counts, counts[1:])]
        assert 0 < max(per_round) <= _GRID_POINTS + (_GRID_POINTS if t > 1 else 1)


def _outcome(fn, *args):
    try:
        return fn(*args)
    except ValueError as exc:  # ParameterError, InfeasibleError, AllocationError
        return type(exc), str(exc)


_FAN_IN = "no feasible download bandwidth: effective fan-in too small"
_EVERY_PEER = "no collaboration bandwidth is defined when every peer may misbehave"


def _in_window_words(outcome, lo, hi):
    """An oracle outcome whose InfeasibleError is reworded as the window
    words it, one message per cause for both kinds: the fan-in one when
    lo or hi is nonpositive, else the every-peer one."""
    if isinstance(outcome, tuple) and outcome[0] is InfeasibleError:
        return InfeasibleError, _FAN_IN if min(lo, hi) <= 0 else _EVERY_PEER
    return outcome


def _bounds_outcome(p, adv):
    got = _outcome(msr_selfish_bounds, p, adv)
    if isinstance(got, MsrSelfishBounds):
        got = (got.beta_exact, got.beta_min, got.beta_max, got.beta_prime_min,
               got.beta_prime_max, got.exact_formula_applies)
    return got


class TestMsrWindowMatchesParent:
    """characteristic_bandwidth_box and msr_selfish_bounds, both read off
    capacity._msr_window, against the per-kind code they replaced
    (oracles.oracle_characteristic_box, oracles.oracle_msr_selfish_bounds).

    A profile the per-group clamp leaves alone, t > 1 and f*per_group_max
    <= t - 1, gets the parent's Fractions or error type, with an
    InfeasibleError worded by its cause (``_in_window_words``).  At t > 1
    any other profile gets the parent's outcome at the clamped cap
    (t - 1)//f.  At t = 1 both beta bounds are (B/k)/lo with the beta'
    window (0, 0), or InfeasibleError when lo <= 0; the parent failed
    there under every adversary.  A polluting live count above d/2 is a
    ParameterError in the window as everywhere."""

    @settings(max_examples=500, deadline=None, derandomize=True)
    @given(st.data())
    def test_same_window_or_error(self, data):
        t = data.draw(st.integers(1, 6))
        k = data.draw(st.integers(1, 12))
        kind = data.draw(st.sampled_from([None, *AdversaryKind]))
        adv = None
        if kind is not None:
            among = data.draw(st.integers(0, 6))
            cap = data.draw(st.integers(0, 4))
            if data.draw(st.booleans()):  # concrete counts
                per = data.draw(st.lists(st.integers(0, cap), max_size=8))
                fit = t * len(per) - sum(per)  # the k for which beta_exact applies
                if 1 <= fit <= 12:
                    k = fit
                given_cap = data.draw(st.sampled_from([cap, None]))  # None: max(per)
                adv = AdversaryProfile(kind, among, per_group=per, per_group_max=given_cap)
            else:
                total = data.draw(st.sampled_from([0, 0, 1, cap, k]))
                adv = AdversaryProfile(kind, among, per_group_max=cap, total=total)
        d = data.draw(st.integers(k, k + 8))
        p = params(k=k, d=d, t=t, B=data.draw(st.sampled_from([F(1), F(k), F(7, 3)])))
        f, among, cap = (1, 0, 0) if adv is None else (adv.factor, adv.among_live, adv.per_group_max)
        if adv is not None and t == 1:
            lo = d - f * among - k + 1
            fail = _outcome(_oracle_check_among_live, p, adv) or (
                None if lo > 0 else (InfeasibleError, _FAN_IN)
            )
            beta = p.unit / lo if lo > 0 else None
            mbr_beta = mbr_point(p)[1]
            want_box = fail or ((mbr_beta, max(beta, mbr_beta)), (F(0), F(0)))
            applies = adv.per_group is not None and len(adv.per_group) == k + adv.total
            want_bounds = fail or (beta if applies else None, beta, beta, F(0), F(0), applies)
        else:
            if adv is not None and f * cap > t - 1:  # clamped
                cap = (t - 1) // f
                adv_at = AdversaryProfile(kind, among, per_group_max=cap, total=adv.total)
            else:
                adv_at = adv
            lo = d - f * among - k + t
            hi = lo - f * cap
            want_box = _in_window_words(_outcome(oracle_characteristic_box, p, adv_at), lo, hi)
            if adv is not None:
                want_bounds = _in_window_words(
                    _outcome(oracle_msr_selfish_bounds, p, adv_at), lo, hi
                )
        if kind is AdversaryKind.POLLUTING:
            want_bounds = ParameterError, "profile kind must be selfish"
            if 2 * among > d:
                want_box = ParameterError, f"polluting live count {among} needs 2*count <= d={d}"
        assert _outcome(characteristic_bandwidth_box, p, adv) == want_box
        if adv is not None:
            assert _bounds_outcome(p, adv) == want_bounds

    def test_polluting_live_count_above_half_d(self):
        # The parent's window took d_eff = 3 - 2*2 = -1 here and returned
        # ((2/9, 1/2), (1/9, 1/2)).
        with pytest.raises(ParameterError, match="needs 2\\*count <= d=3"):
            characteristic_bandwidth_box(params(k=3, d=3, t=6, B=3), polluting(2))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.data())
def test_cap_above_what_a_group_holds_counts_as_the_most_it_holds(data):
    # A group of t newcomers holds at most (t - 1)//f misbehavers, so at
    # per_group_max = L every bound gives the outcome of min(L, (t - 1)//f).
    kind = data.draw(st.sampled_from(list(AdversaryKind)))
    t = data.draw(st.integers(1, 6))
    k = data.draw(st.integers(1, 8))
    d = data.draw(st.integers(k, k + 6))
    among = data.draw(st.integers(0, 3))
    cap = data.draw(st.integers(0, 5))
    total = data.draw(st.sampled_from([0, 1, cap, k]))
    fracs = st.fractions(min_value=0, max_value=2, max_denominator=6)
    p = params(k=k, d=d, t=t, B=k, alpha=data.draw(fracs), beta=data.draw(fracs),
               beta_prime=data.draw(fracs))
    given_adv = AdversaryProfile(kind, among, per_group_max=cap, total=total)
    most = (t - 1) // given_adv.factor
    held = AdversaryProfile(kind, among, per_group_max=min(cap, most), total=total)
    for fn, *rest in [
        (characteristic_bandwidth_box,),
        (_bounds_outcome,),
        (worst_case_capacity, None),
        (worst_case_capacity, k),
    ]:
        assert _outcome(fn, p, given_adv, *rest) == _outcome(fn, p, held, *rest)


class TestOptimizer:
    def setup_method(self):
        self.p = params(k=32, d=48, t=4, B=32)

    def test_min_storage_endpoint(self):
        alpha, beta, _ = msr_point(self.p)
        point = optimize_gamma(self.p, None, alpha)
        target = float(self.p.d * beta + (self.p.t - 1) * beta)
        assert abs(point.gamma_norm - target) <= 1e-3 * target

    def test_min_bandwidth_endpoint(self):
        alpha, _, _ = mbr_point(self.p)
        point = optimize_gamma(self.p, None, alpha)
        target = float(alpha)
        assert abs(point.gamma_norm - target) <= 1e-3 * target

    def test_alpha_below_minimum_is_infeasible(self):
        with pytest.raises(InfeasibleError):
            optimize_gamma(self.p, None, F(1, 2))

    def test_point_invariants(self):
        point = optimize_gamma(self.p, None, F(11, 10))
        gamma = self.p.d * point.beta_norm + (self.p.t - 1) * point.beta_prime_norm
        assert abs(point.gamma_norm - gamma) <= 1e-9
        raw = self.p.with_point(
            F(11, 10),
            F(point.beta_norm) * self.p.unit,
            F(point.beta_prime_norm) * self.p.unit,
        )
        value, _, _ = worst_case_capacity(raw)
        assert value >= self.p.B * (1 - F(1, 10**9))

    def test_optimizer_near_exhaustive_small_case(self):
        # Fine bandwidth scan oracle on a small system.
        p = params(k=4, d=5, t=2, B=4)
        alpha = F(13, 10)
        point = optimize_gamma(p, None, alpha)
        best = None
        steps = 160
        for i in range(steps + 1):
            for j in range(steps + 1):
                b = F(i, steps)
                bp = F(j, steps)
                value, _, _ = worst_case_capacity(p.with_point(alpha, b, bp))
                if value >= 4:
                    gamma = 5 * b + bp
                    if best is None or gamma < best:
                        best = gamma
        assert point.gamma_norm <= float(best) * (1 + 2e-3)


@pytest.mark.parametrize("k, d, among, windows", [(4, 6, 2, 2), (8, 12, 4, 3)])
def test_optimum_beyond_the_first_window_doubles_it(k, d, among, windows, monkeypatch):
    # at minimum storage with t = 2 and L0 selfish live nodes the optimum
    # beta is 1/(d - L0 - k + t) = 1/2 of a unit, past the first window's
    # 2 * mbr beta, so the open search doubles the window until it fits
    p, adversary = params(k=k, d=d, t=2, B=k), selfish(among)
    windows_searched = []
    grid_search = tradeoff._grid_search

    def spy(search, alpha, B, d, t, bounds, **kw):
        windows_searched.append(bounds[0][1])
        return grid_search(search, alpha, B, d, t, bounds, **kw)

    monkeypatch.setattr(tradeoff, "_grid_search", spy)
    alpha = p.B / k
    point = optimize_gamma(p, adversary, alpha)
    first = 2 * float(mbr_point(p)[1])
    assert windows_searched == [first * 2**i for i in range(windows)]
    assert point.beta_norm == pytest.approx(1 / (d - among - k + 2), rel=1e-4)
    raw = p.with_point(alpha, F(point.beta_norm) * p.unit, F(point.beta_prime_norm) * p.unit)
    value, _, _ = worst_case_capacity(raw, adversary)
    assert value >= p.B


def test_box_with_nothing_feasible_raises_after_one_search(monkeypatch):
    # a tenth of the minimum-bandwidth point's bandwidths cannot carry B at
    # its storage level, and a given box is searched once, never widened
    p = params(k=32, d=48, t=4, B=32)
    alpha, beta, beta_prime = mbr_point(p)
    calls = []
    grid_search = tradeoff._grid_search

    def spy(*args, **kw):
        calls.append(args)
        return grid_search(*args, **kw)

    monkeypatch.setattr(tradeoff, "_grid_search", spy)
    box = ((F(0), beta / 10), (F(0), beta_prime / 10))
    with pytest.raises(InfeasibleError, match="no feasible bandwidth in the search window"):
        optimize_gamma(p, None, alpha, fixed_g=32, bandwidth_box=box)
    assert len(calls) == 1


@pytest.mark.parametrize(
    "alpha, message",
    [
        (3 * (1 - F(1, 10**14)), "could not certify a feasible point"),
        (3 * (1 - F(1, 10**11)), "no feasible bandwidth in the search window"),
    ],
)
def test_level_just_below_its_supremum_is_infeasible(alpha, message, monkeypatch):
    # with 2 of d = 3 live nodes selfish the partition (1, 2) caps the
    # capacity at alpha itself, so any alpha below B = 3 is infeasible.  At
    # 1e-14 below, the float grid passes a point that every nudge fails to
    # certify; at 1e-11 below, the open window stops once both edges reach
    # alpha with nothing feasible.  A tolerance of 1e-9 would certify both.
    p, adversary = params(k=3, d=3, t=2, B=3), selfish(2)
    calls = []
    grid_search = tradeoff._grid_search

    def spy(*args, **kw):
        calls.append(args)
        return grid_search(*args, **kw)

    monkeypatch.setattr(tradeoff, "_grid_search", spy)
    assert supremum_capacity(p.with_point(alpha, 0, 0), adversary) == alpha
    with pytest.raises(InfeasibleError, match=message):
        optimize_gamma(p, adversary, alpha)
    assert len(calls) <= 3
    point = optimize_gamma(p, adversary, F(3))
    assert point.gamma_norm == 3
    assert point.witness_partition.groups == (1, 2)


@pytest.mark.parametrize(
    "t, fixed_g",
    [(4, None), (8, None), (4, 32)],
    ids=["collab_t4", "collab_t8", "attack_baseline_g32"],
)
def test_every_curve_point_certifies_at_exactly_B(t, fixed_g):
    # B/k = 1, so a CurvePoint's floats are its raw bandwidths
    p = params(k=32, d=48, t=t, B=32)
    grid = default_alpha_grid(p, points=32)
    points = sweep_curve(SweepConfig(p, alpha_grid=grid, fixed_g=fixed_g))
    assert [cp.alpha_norm for cp in points] == [float(a) for a in grid]
    for alpha, cp in zip(grid, points):
        raw = p.with_point(alpha, F(cp.beta_norm), F(cp.beta_prime_norm))
        value, _, _ = worst_case_capacity(raw, None, fixed_g)
        assert value >= p.B


class TestSweep:
    def test_gamma_non_increasing_and_dominance(self):
        p4 = params(k=32, d=48, t=4, B=32)
        p8 = params(k=32, d=48, t=8, B=32)
        grid = default_alpha_grid(p4, points=9)
        c4 = sweep_curve(SweepConfig(p4, alpha_grid=grid))
        c8 = sweep_curve(SweepConfig(p8, alpha_grid=grid))
        for row in (c4, c8):
            for a, b in zip(row, row[1:]):
                assert b.gamma_norm <= a.gamma_norm + 1e-12
        for a4, a8 in zip(c4, c8):
            assert a8.gamma_norm <= a4.gamma_norm

    def test_selfish_curve_dominates_baseline(self):
        p = params(k=32, d=48, t=4, B=32)
        grid = default_alpha_grid(p, points=7)
        base = sweep_curve(SweepConfig(p, alpha_grid=grid, fixed_g=32))
        hit = sweep_curve(
            SweepConfig(p, selfish(1, maxa=1, total=16), alpha_grid=grid, fixed_g=32)
        )
        assert len(base) == len(hit) == 7
        for b, h in zip(base, hit):
            assert h.gamma_norm >= b.gamma_norm

    def test_infeasible_grid_points_skipped(self):
        p = params(k=4, d=5, t=2, B=4)
        grid = [F(1, 2), F(1), F(3, 2)]
        pts = sweep_curve(SweepConfig(p, alpha_grid=grid))
        assert len(pts) == 2  # alpha = 1/2 dropped

    def test_supremum_blocks_hopeless_alpha(self):
        p = params(k=4, d=5, t=2, B=4, alpha=F(3, 4))
        assert supremum_capacity(p) == 3


def figure_sweep(slot):
    """The SweepConfig of one curve of the figure sweep at d=48, k=32, on
    its first 16-level grid, as perfbench's curves workload builds it."""
    p = {t: params(k=32, d=48, t=t, B=32) for t in (1, 4, 8)}
    if slot.startswith("collab_t"):
        grid = default_alpha_grid(p[1], points=32)[::2]
        return SweepConfig(p[int(slot[8:])], alpha_grid=grid)
    adversary = None
    if slot != "attack_baseline_g32":
        _, kind, total = slot.split("_")
        adversary = (selfish if kind == "selfish" else polluting)(1, maxa=1, total=int(total))
    return SweepConfig(p[4], adversary, default_alpha_grid(p[4], points=32)[::2], fixed_g=32)


FIGURE_SLOTS = ("collab_t1", "collab_t4", "collab_t8", "attack_baseline_g32",
                "attack_selfish_16", "attack_selfish_32", "attack_polluting_16",
                "attack_polluting_32")


def per_level_chain(cfg):
    """sweep_curve's points as one optimize_gamma call per level, each
    warm-started from the point before it, none given the cuts of another."""
    box = None
    if cfg.fixed_g is not None:
        box = characteristic_bandwidth_box(cfg.params, cfg.adversary)
    unit, out, warm = float(cfg.params.unit), [], None
    for alpha in cfg.alpha_grid:
        try:
            point = optimize_gamma(cfg.params, cfg.adversary, alpha, cfg.fixed_g, cfg.tolerance,
                                   box, _warm=warm)
        except InfeasibleError:
            continue
        out.append(point)
        warm = (point.beta_norm * unit, point.beta_prime_norm * unit)
    return out


@pytest.fixture
def search_calls(monkeypatch):
    """A list whose one entry counts every call of every built worst-case
    search, float and exact: _build_search wrapped as CI's report of
    float searches per curve point wraps it."""
    calls, build = [0], tradeoff._build_search

    @functools.lru_cache(maxsize=1)
    def counting(*key):
        search = build(*key)

        @functools.wraps(search)  # keeps the search's piece, and so the walk's cuts
        def counted(*args):
            calls[0] += 1
            return search(*args)

        return counted

    monkeypatch.setattr(tradeoff, "_build_search", counting)
    return calls


class TestCarriedCuts:
    """sweep_curve carries one cut list from level to level; the points
    are those of the levels run one by one, with fewer searches."""

    @pytest.mark.parametrize("slot", FIGURE_SLOTS)
    def test_sweep_matches_the_per_level_chain(self, slot):
        cfg = figure_sweep(slot)
        got, want = sweep_curve(cfg), per_level_chain(cfg)
        assert len(got) == 16
        assert got == want and list(map(repr, got)) == list(map(repr, want))

    def test_carried_cuts_save_searches(self, search_calls):
        calls, chained, carried = search_calls, [], []
        for slot in FIGURE_SLOTS:
            cfg = figure_sweep(slot)
            for run, counts in ((per_level_chain, chained), (sweep_curve, carried)):
                calls[0] = 0
                run(cfg)
                counts.append(calls[0])
        assert all(c <= w for c, w in zip(carried, chained)), (carried, chained)
        assert sum(carried) < sum(chained)


def test_large_k_search_does_not_recurse():
    # The DP once recursed one level per group: RecursionError at k=1200.
    # With beta' = 0 the budget costs nothing and single-node groups are
    # the worst case, each term min(alpha, (d - s) * beta).
    p = params(k=1200, d=1300, t=2, B=1200, alpha=1, beta=F(1, 1000), beta_prime=0)
    value, part, alloc = worst_case_capacity(p, selfish(0, maxa=1, total=1))
    assert value == sum(min(F(1), F(1300 - s, 1000)) for s in range(1200))
    assert value == worst_case_capacity(p)[0]  # the prefix-sum strategy
    assert part == GroupPartition.all_ones(1200)
    assert alloc == (0,) * 1199 + (1,)  # ties to the smallest a, placed last


class TestCountsAreInts:
    # the one-entry cache took 2.0 for the key 2: right after a fixed_g=2
    # search the float got its answer, and on a cold cache it raised TypeError
    @pytest.mark.parametrize("warm", [False, True], ids=["cold", "warm"])
    @pytest.mark.parametrize("fixed_g", [2.0, True, "2"])
    def test_fixed_g(self, fixed_g, warm):
        p = params(k=4, d=6, t=2, B=4, alpha=1, beta=1, beta_prime=1)
        tradeoff._build_search.cache_clear()
        if warm:
            assert worst_case_capacity(p, None, 2)[0] == 4
        with pytest.raises(ParameterError, match="^fixed_g must be an int"):
            worst_case_capacity(p, None, fixed_g)
        with pytest.raises(ParameterError, match="^fixed_g must be an int"):
            optimize_gamma(p, None, F(3, 2), fixed_g=fixed_g)

    @pytest.mark.parametrize("points", [True, 2.0, "4"])
    def test_grid_points(self, points):
        # True gave one level, and 2.0 raised TypeError
        with pytest.raises(ParameterError, match="^points must be an int"):
            default_alpha_grid(params(k=4, d=6, t=2, B=4), points=points)


@pytest.mark.parametrize(
    "box",
    [((F(1), F(2)), (F(1, 2), F(1, 4))), ((F(2), F(1)), (F(1, 4), F(1, 2)))],
    ids=["beta_prime", "beta"],
)
def test_box_with_an_end_below_its_start_rejected(box):
    # an inverted beta' window was searched at its end alone, and an
    # inverted beta window walked from its start down to its end
    with pytest.raises(ParameterError, match="^bandwidth_box has an end below its start$"):
        optimize_gamma(params(k=4, d=6, t=2, B=4), None, F(3, 2), bandwidth_box=box)


@pytest.mark.parametrize(
    "call, fragment",
    [
        (lambda: default_alpha_grid(params(k=4, d=6, t=2, B=4), points=0), "grid needs at least one point"),
        (lambda: optimize_gamma(params(k=4, d=6, t=2, B=4), None, F(-1)), "alpha must be nonnegative"),
        # an infinite alpha or grid end raised OverflowError, a NaN a bare ValueError
        (lambda: optimize_gamma(params(k=4, d=6, t=2, B=4), None, math.inf), "^inf is not a finite number$"),
        (lambda: optimize_gamma(params(k=4, d=6, t=2, B=4), None, math.nan), "^nan is not a finite number$"),
        (lambda: default_alpha_grid(params(k=4, d=6, t=2, B=4), alpha_max=math.inf),
         "^inf is not a finite number$"),
        (lambda: default_alpha_grid(params(k=4, d=6, t=2, B=4), alpha_min=-math.inf),
         "^-inf is not a finite number$"),
        # NaN and negative tolerances ran every refinement, as the CLI's --tol forbids
        *((lambda tol=tol: optimize_gamma(params(k=4, d=6, t=2, B=4), None, F(3, 2), tolerance=tol),
           f"^tolerance must be finite and nonnegative, got {tol!r}$")
          for tol in (math.nan, math.inf, -1e-4, True, "1e-4")),
        (lambda: sweep_curve(SweepConfig(params(k=4, d=6, t=2, B=4), tolerance=-1.0)),
         "^tolerance must be finite and nonnegative, got -1.0$"),
        # a sweep checks its tolerance and structure before any level, so an
        # empty grid no longer returns [] for either
        (lambda: sweep_curve(SweepConfig(params(k=4, d=6, t=2, B=4), alpha_grid=[],
                                         tolerance=math.nan)),
         "^tolerance must be finite and nonnegative, got nan$"),
        (lambda: sweep_curve(SweepConfig(params(k=4, d=6, t=2, B=4), alpha_grid=[], fixed_g=7)),
         "^fixed group count g=7 incompatible with k=4, t=2$"),
    ],
)
def test_documented_errors(call, fragment):
    with pytest.raises(ParameterError, match=fragment):
        call()


def test_zero_object_size_gives_the_zero_point():
    point = optimize_gamma(params(k=4, d=6, t=2, B=0), None, F(1))
    assert point == tradeoff.CurvePoint(0.0, 0.0, 0.0, 0.0, GroupPartition.all_ones(4), None)


@pytest.mark.parametrize(
    "adversary, fixed_g, box, error, fragment",
    [
        (None, 2.0, None, ParameterError, "^fixed_g must be an int"),
        (None, None, ((F(2), F(1)), (F(0), F(0))), ParameterError,
         "^bandwidth_box has an end below its start$"),
        (AdversaryProfile("selfish", per_group_max=1, total=9), 2, None, InfeasibleError,
         "^adversary budget exceeds what the groups can hold$"),
    ],
    ids=["fixed_g", "box", "budget"],
)
def test_zero_object_size_still_checks_the_structure(adversary, fixed_g, box, error, fragment):
    # B = 0 returned the zero point before any of these checks, where a
    # positive B raised
    for B in (4, 0):
        with pytest.raises(error, match=fragment):
            optimize_gamma(params(k=4, d=6, t=2, B=B), adversary, F(1), fixed_g=fixed_g,
                           bandwidth_box=box)


@pytest.mark.parametrize("grid", [[], [F(1), F(3, 2), F(2), F(5, 2)]], ids=["empty", "four"])
def test_sweep_builds_a_search_no_partition_holds_once(grid, monkeypatch):
    # Each level rebuilt the failing search, logged a skipped level, and
    # the sweep returned []; now it raises once, naming the budget.
    builds, build = [], tradeoff._build_search

    def counted(*key):
        builds.append(key)
        return build(*key)

    monkeypatch.setattr(tradeoff, "_build_search", counted)
    cfg = SweepConfig(params(k=12, d=20, t=3, B=12), selfish(1, maxa=1, total=1), grid, fixed_g=4)
    with pytest.raises(InfeasibleError, match="^adversary budget exceeds what the groups can hold$"):
        sweep_curve(cfg)
    assert len(builds) == 1


def test_sweep_without_a_grid_runs_the_default_grid():
    p = params(k=4, d=6, t=3, B=4)
    adversary = selfish(1, maxa=1, total=2)
    got = sweep_curve(SweepConfig(p, adversary, fixed_g=2))
    want = sweep_curve(SweepConfig(p, adversary, default_alpha_grid(p), fixed_g=2))
    assert len(got) == 64 and got == want
