"""Exact-rational capacity bounds and characteristic points."""

import math
from dataclasses import replace
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from collabregen.capacity import (
    AdversaryKind,
    AdversaryProfile,
    AllocationError,
    GroupPartition,
    InfeasibleError,
    MsrSelfishBounds,
    ParameterError,
    PartitionError,
    SystemParams,
    as_fraction,
    capacity_polluting,
    capacity_selfish,
    mbr_point,
    mincut_collab,
    mincut_single,
    msr_point,
    msr_selfish_bounds,
    polluted_collection_min_storage,
    repair_gamma,
)


def params(k, d, t, B=0, n=None, alpha=0, beta=0, beta_prime=0):
    return SystemParams.for_repair_network(
        k=k, d=d, t=t, B=B, n=n, alpha=alpha, beta=beta, beta_prime=beta_prime
    )


def cut_oracle(p, groups, among, per_group, factor):
    """Independent termwise evaluation of the adversarial cut sum."""
    total = F(0)
    prefix = 0
    for u, a in zip(groups, per_group):
        bw = max(0, p.d - factor * among - prefix) * p.beta
        bw += max(0, p.t - factor * a - u) * p.beta_prime
        total += u * min(p.alpha, bw)
        prefix += u
    return total


class TestMincutSingle:
    def test_hand_evaluated_small_case(self):
        # min(100, 3) + min(100, 2)
        assert mincut_single(params(k=2, d=3, t=1, alpha=100, beta=1)) == 5

    def test_zero_bandwidth_gives_zero(self):
        assert mincut_single(params(k=3, d=5, t=1, alpha=7, beta=0)) == 0

    def test_storage_limited_regime(self):
        # every (48-i)/17 >= 1 for i <= 31
        p = params(k=32, d=48, t=1, alpha=1, beta=F(1, 17))
        assert mincut_single(p) == 32

    def test_d_below_k_rejected(self):
        with pytest.raises(ParameterError):
            params(k=4, d=3, t=1)


class TestCountsAreInts:
    # counts were once coerced by int() (1.7 -> 1), or kept as floats that
    # turned exact bounds into floats further on
    @pytest.mark.parametrize("groups", [(1.7, 2.2), ("2", "1"), (True, True), (2, 1.0)])
    def test_group_sizes(self, groups):
        with pytest.raises(PartitionError, match="^group size must be an int"):
            GroupPartition(groups)

    @pytest.mark.parametrize(
        "counts, name",
        [
            (dict(per_group=(0.9, 1.5)), "per_group count"),
            (dict(per_group=(True, 0)), "per_group count"),
            (dict(among_live=0.5, per_group=(0, 0)), "among_live"),
            (dict(among_live=True), "among_live"),
            (dict(among_live=None), "among_live"),
            (dict(per_group_max=1.0), "per_group_max"),
            (dict(total=F(2)), "total"),
            (dict(per_group=(1, 1), total=2.0), "total"),
        ],
    )
    def test_adversary_counts(self, counts, name):
        with pytest.raises(ParameterError, match=f"^{name} must be an int"):
            AdversaryProfile(AdversaryKind.SELFISH, **counts)

    def test_bounds_stay_exact(self):
        p = params(k=3, d=4, t=2, alpha=10, beta=F(1, 3), beta_prime=F(1, 3))
        adv = AdversaryProfile(AdversaryKind.SELFISH, among_live=1, per_group=(0, 0))
        value = capacity_selfish(p, GroupPartition((2, 1)), adv)
        assert type(value) is F and value == F(8, 3)
        # at among_live=0.5 the same bound was the float 3.1666...
        with pytest.raises(ParameterError, match="^among_live must be an int"):
            AdversaryProfile(AdversaryKind.SELFISH, among_live=0.5, per_group=(0, 0))

    @pytest.mark.parametrize("field", ["n", "k", "d", "t"])
    @pytest.mark.parametrize("bad", [True, 4.0, "4", F(4)])
    def test_system_params(self, field, bad):
        good = dict(n=8, k=4, d=4, t=2, B=4)
        good[field] = bad
        with pytest.raises(ParameterError, match=f"^{field} must be an int"):
            SystemParams(**good)

    def test_kind_still_converts(self):
        assert AdversaryProfile("polluting").kind is AdversaryKind.POLLUTING


@pytest.mark.parametrize(
    "call, error, fragment",
    [
        (lambda: params(k=2, d=5, t=2, n=6), ParameterError, "need d <= n - t, got d=5, n-t=4"),
        (lambda: params(k=2, d=3, t=1, B=-1), ParameterError, "B must be nonnegative"),
        (lambda: params(k=2, d=3, t=1, alpha=-1), ParameterError, "alpha must be nonnegative"),
        (lambda: params(k=2, d=3, t=1, beta=F(-1, 2)), ParameterError, "beta must be nonnegative"),
        (lambda: params(k=2, d=3, t=1, beta_prime=-1), ParameterError, "beta_prime must be nonnegative"),
        (lambda: GroupPartition(()), PartitionError, "at least one group"),
        (lambda: GroupPartition((2, 0)), PartitionError, "group sizes must be positive"),
        (lambda: GroupPartition.uniform(5, 2), PartitionError, "t=2 does not divide k=5"),
        (lambda: AdversaryProfile("selfish", among_live=-1), ParameterError,
         "among_live count must be nonnegative"),
        (lambda: AdversaryProfile("selfish", per_group=(0, -1)), AllocationError,
         "per-group counts must be nonnegative"),
        (lambda: AdversaryProfile("selfish", per_group_max=-1), ParameterError,
         "per_group_max and total must be nonnegative"),
        (lambda: AdversaryProfile("selfish", total=-1), ParameterError,
         "per_group_max and total must be nonnegative"),
        # with per_group given the cap was not checked, and msr_selfish_bounds
        # then returned inverted ranges
        (lambda: AdversaryProfile("selfish", per_group=(), per_group_max=-1), ParameterError,
         "^per_group_max and total must be nonnegative$"),
        # 1.5 gave the float 1.6 on k=8, B=8, and True was taken as 1
        (lambda: polluted_collection_min_storage(params(k=8, d=10, t=2, B=8), 1.5),
         ParameterError, "^polluters must be an int"),
        (lambda: polluted_collection_min_storage(params(k=8, d=10, t=2, B=8), True),
         ParameterError, "^polluters must be an int"),
        # an infinity raised OverflowError and a NaN a bare ValueError
        (lambda: as_fraction(math.inf), ParameterError, r"^inf is not a finite number$"),
        (lambda: as_fraction(-math.inf), ParameterError, r"^-inf is not a finite number$"),
        (lambda: as_fraction(math.nan), ParameterError, r"^nan is not a finite number$"),
        (lambda: params(k=2, d=3, t=1, B=math.inf), ParameterError, r"^inf is not a finite number$"),
        (lambda: params(k=2, d=3, t=1, beta=math.nan), ParameterError, r"^nan is not a finite number$"),
    ],
)
def test_documented_errors(call, error, fragment):
    with pytest.raises(error, match=fragment):
        call()


class TestMincutCollab:
    def test_t_equal_one_reduces_to_single(self):
        p = params(k=5, d=7, t=1, alpha=F(3, 2), beta=F(1, 4))
        assert mincut_collab(p, GroupPartition.all_ones(5)) == mincut_single(p)

    def test_full_group_partition(self):
        p = params(k=32, d=48, t=4, alpha=1, beta=F(1, 20), beta_prime=F(1, 20))
        assert mincut_collab(p, GroupPartition.uniform(32, 4)) == 32

    def test_all_ones_partition(self):
        p = params(k=32, d=48, t=4, alpha=1, beta=F(1, 20), beta_prime=F(1, 20))
        assert mincut_collab(p, GroupPartition.all_ones(32)) == 32

    def test_bad_partition_rejected(self):
        p = params(k=4, d=5, t=2)
        with pytest.raises(Exception):
            mincut_collab(p, GroupPartition((3, 1)))
        with pytest.raises(Exception):
            mincut_collab(p, GroupPartition((2, 1)))


class TestCharacteristicPoints:
    def test_min_storage_point_values(self):
        assert msr_point(params(k=32, d=48, t=4, B=32)) == (1, F(1, 20), F(1, 20))

    def test_min_storage_point_small_system(self):
        # d = k = 3, t = 2, B = 6: raw (2, 1, 1), i.e. beta = beta' = 1/2 of B/k.
        alpha, beta, beta_prime = msr_point(params(k=3, d=3, t=2, B=6))
        assert (alpha, beta, beta_prime) == (2, 1, 1)
        unit = F(6, 3)
        assert beta / unit == F(1, 2) and beta_prime / unit == F(1, 2)

    def test_min_storage_point_uncoordinated(self):
        assert msr_point(params(k=32, d=48, t=1, B=32))[1] == F(1, 17)

    def test_min_bandwidth_point_values(self):
        alpha, beta, beta_prime = mbr_point(params(k=32, d=48, t=4, B=32))
        assert (alpha, beta, beta_prime) == (F(99, 68), F(2, 68), F(1, 68))

    def test_min_bandwidth_equals_gamma(self):
        p = params(k=32, d=48, t=4, B=32)
        alpha, beta, beta_prime = mbr_point(p)
        assert repair_gamma(p.with_point(alpha, beta, beta_prime)) == alpha

    def test_min_bandwidth_uncoordinated(self):
        alpha, beta, _ = mbr_point(params(k=32, d=48, t=1, B=32))
        assert (alpha, beta) == (F(96, 65), F(2, 65))

    def test_gamma_values(self):
        assert repair_gamma(params(k=3, d=3, t=2, beta=F(1, 2), beta_prime=F(1, 2))) == 2
        assert repair_gamma(params(k=3, d=5, t=1, beta=F(1, 3), beta_prime=99)) == F(5, 3)
        assert repair_gamma(params(k=32, d=48, t=4, beta=F(1, 20), beta_prime=F(1, 20))) == F(51, 20)

    def test_min_storage_feasibility_at_extreme_partitions(self):
        p = params(k=32, d=48, t=4, B=32)
        point = p.with_point(*msr_point(p))
        assert mincut_collab(point, GroupPartition.uniform(32, 4)) == p.B
        assert mincut_collab(point, GroupPartition.all_ones(32)) == p.B


def selfish(among=0, per_group=None, per_group_max=None, total=None):
    return AdversaryProfile(
        AdversaryKind.SELFISH, among, per_group, per_group_max, total
    )


def polluting(among=0, per_group=None, per_group_max=None, total=None):
    return AdversaryProfile(
        AdversaryKind.POLLUTING, among, per_group, per_group_max, total
    )


class TestAdversarialCapacity:
    def setup_method(self):
        self.p = params(k=32, d=48, t=4, alpha=1, beta=F(1, 20), beta_prime=F(1, 20))
        self.ones = GroupPartition.all_ones(32)

    def test_adversary_free_reduction(self):
        zeros = (0,) * 32
        base = mincut_collab(self.p, self.ones)
        assert capacity_selfish(self.p, self.ones, selfish(0, zeros)) == base
        assert capacity_polluting(self.p, self.ones, polluting(0, zeros)) == base

    def test_selfish_everywhere_breaks_min_storage(self):
        adv = selfish(1, (1,) * 32)
        value = capacity_selfish(self.p, self.ones, adv)
        assert value == F(637, 20)
        assert value < 32
        assert value == cut_oracle(self.p, self.ones.groups, 1, (1,) * 32, 1)

    def test_selfish_live_only_with_wider_bandwidth(self):
        p = self.p.with_point(1, F(1, 19), F(1, 19))
        assert capacity_selfish(p, self.ones, selfish(1, (0,) * 32)) == 32

    def test_polluting_live_only_value(self):
        adv = polluting(1, (0,) * 32)
        value = capacity_polluting(self.p, self.ones, adv)
        assert value == cut_oracle(self.p, self.ones.groups, 1, (0,) * 32, 2)
        # Termwise: min(1, (46-i)/20 + 3/20); the tail dips below alpha.
        assert value == F(637, 20)

    def test_pollution_dominance_matched_counts(self):
        per = (1, 0) * 16
        s = capacity_selfish(self.p, self.ones, selfish(1, per))
        b = capacity_polluting(self.p, self.ones, polluting(1, per))
        assert b <= s

    def test_infeasible_allocation_rejected(self):
        p = params(k=4, d=6, t=2, alpha=1, beta=1, beta_prime=1)
        part = GroupPartition((2, 2))
        with pytest.raises(AllocationError):
            capacity_selfish(p, part, selfish(0, (1, 0)))
        with pytest.raises(AllocationError):
            capacity_polluting(p, part, polluting(0, (1, 0)))

    @pytest.mark.parametrize(
        "capacity, profile, other, kind",
        [
            (capacity_selfish, selfish, polluting, "selfish"),
            (capacity_polluting, polluting, selfish, "polluting"),
        ],
    )
    def test_messages_name_the_kind(self, capacity, profile, other, kind):
        p = params(k=4, d=6, t=2, alpha=1, beta=1, beta_prime=1)
        part = GroupPartition((2, 2))
        with pytest.raises(ParameterError, match=f"^profile kind must be {kind}$"):
            capacity(p, part, other(0, (0, 0)))
        with pytest.raises(AllocationError, match=f"^need one {kind} count per group$"):
            capacity(p, part, profile(0, (0,)))
        with pytest.raises(
            AllocationError, match=rf"^group of size 2 infeasible with 1 {kind} newcomers \(t=2\)$"
        ):
            capacity(p, part, profile(0, (1, 0)))

    @pytest.mark.parametrize(
        "capacity, kind", [(capacity_selfish, "selfish"), (capacity_polluting, "polluting")]
    )
    def test_missing_profile_rejected(self, capacity, kind):
        # no profile once ended in an AttributeError
        p = params(k=4, d=6, t=2, alpha=1, beta=1, beta_prime=1)
        with pytest.raises(ParameterError, match=f"^profile kind must be {kind}$"):
            capacity(p, GroupPartition((2, 2)), None)

    def test_too_many_live_adversaries_rejected(self):
        p = params(k=2, d=3, t=2, alpha=1, beta=1, beta_prime=1)
        part = GroupPartition.all_ones(2)
        with pytest.raises(ParameterError):
            capacity_selfish(p, part, selfish(4, (0, 0)))
        with pytest.raises(ParameterError):
            capacity_polluting(p, part, polluting(2, (0, 0)))


class TestMsrSelfishBounds:
    def setup_method(self):
        self.p = params(k=32, d=48, t=4, B=32)

    def test_range_for_one_selfish_per_group(self):
        bounds = msr_selfish_bounds(self.p, selfish(1, per_group_max=1, total=32))
        assert bounds.beta_min == F(1, 19)
        assert bounds.beta_max == F(1, 18)
        assert bounds.beta_prime_min == F(2, 54)
        assert bounds.beta_prime_max == F(3, 38)

    def test_no_selfish_newcomers_degenerates_to_point(self):
        bounds = msr_selfish_bounds(self.p, selfish(1, per_group_max=0, total=0))
        assert bounds.beta_min == bounds.beta_max == F(1, 19)
        assert bounds.beta_prime_min == bounds.beta_prime_max == F(1, 19)

    def test_max_selfish_newcomers_flagged_infeasible(self):
        with pytest.raises(InfeasibleError):
            msr_selfish_bounds(self.p, selfish(1, per_group_max=3, total=16))

    def test_exact_formula_with_concrete_counts(self):
        # g = (k + total)/t = (32 + 4)/4 = 9 groups; last group has 1 selfish.
        per = (0, 0, 0, 0, 0, 1, 1, 1, 1)
        bounds = msr_selfish_bounds(self.p, selfish(1, per_group=per))
        assert bounds.exact_formula_applies
        assert bounds.beta_exact == F(1, 18)
        assert bounds.beta_min <= bounds.beta_exact <= bounds.beta_max

    def test_exact_formula_skipped_when_not_divisible(self):
        per = (0, 0, 1)  # k + total = 35, not divisible by t = 4
        bounds = msr_selfish_bounds(self.p, selfish(1, per_group=per))
        assert not bounds.exact_formula_applies
        assert bounds.beta_exact is None

    def test_shifted_min_storage_exposed(self):
        assert polluted_collection_min_storage(self.p, 1) == F(32, 30)
        with pytest.raises(ParameterError):
            polluted_collection_min_storage(self.p, 16)


# --- property-based invariants ---

small_fracs = st.fractions(min_value=0, max_value=4, max_denominator=12)


@st.composite
def random_setup(draw, max_k=8):
    k = draw(st.integers(1, max_k))
    t = draw(st.integers(1, 4))
    d = draw(st.integers(k, k + 5))
    alpha = draw(small_fracs)
    beta = draw(small_fracs)
    beta_prime = draw(small_fracs)
    p = params(k=k, d=d, t=t, alpha=alpha, beta=beta, beta_prime=beta_prime)
    groups = []
    left = k
    while left:
        u = draw(st.integers(1, min(t, left)))
        groups.append(u)
        left -= u
    return p, GroupPartition(tuple(groups))


def all_partitions(k, t):
    if k == 0:
        yield ()
        return
    for u in range(1, min(t, k) + 1):
        for rest in all_partitions(k - u, t):
            yield (u,) + rest


def test_reduction_chain_exhaustive_small_k():
    for k in range(1, 9):
        for t in (1, 2, 3):
            p = params(k=k, d=k + 2, t=t, alpha=F(3, 2), beta=F(1, 3), beta_prime=F(1, 5))
            for groups in all_partitions(k, t):
                part = GroupPartition(groups)
                zeros = (0,) * part.g
                base = mincut_collab(p, part)
                assert capacity_selfish(p, part, selfish(0, zeros)) == base
                assert capacity_polluting(p, part, polluting(0, zeros)) == base
                if t == 1:
                    assert base == mincut_single(p)
            # the single-repair bound treats every t as 1
            single = mincut_collab(replace(p, t=1), GroupPartition.all_ones(k))
            assert mincut_single(p) == single


@settings(max_examples=150, derandomize=True)
@given(random_setup())
def test_reduction_chain(setup):
    p, part = setup
    zeros = (0,) * part.g
    base = mincut_collab(p, part)
    assert capacity_selfish(p, part, selfish(0, zeros)) == base
    assert capacity_polluting(p, part, polluting(0, zeros)) == base
    if p.t == 1:
        assert base == mincut_single(p)


@settings(max_examples=150, derandomize=True)
@given(random_setup(), st.data())
def test_monotonicity_in_adversary_and_bandwidth(setup, data):
    p, part = setup
    counts = tuple(
        data.draw(st.integers(0, max(0, (p.t - u)))) for u in part.groups
    )
    among = data.draw(st.integers(0, p.d))
    base = capacity_selfish(p, part, selfish(among, counts))

    # capacity never increases when more nodes turn selfish
    if among < p.d:
        assert capacity_selfish(p, part, selfish(among + 1, counts)) <= base
    bigger = tuple(
        min(c + 1, p.t - u) for c, u in zip(counts, part.groups)
    )
    assert capacity_selfish(p, part, selfish(among, bigger)) <= base

    # and never decreases with more storage or bandwidth
    wider = p.with_point(p.alpha + 1, p.beta + F(1, 3), p.beta_prime + F(1, 5))
    assert capacity_selfish(wider, part, selfish(among, counts)) >= base

    # same monotonicity on the polluting side
    b_counts = tuple(min(c, max(0, (p.t - u) // 2)) for c, u in zip(counts, part.groups))
    b_among = min(among, p.d // 2)
    b_base = capacity_polluting(p, part, polluting(b_among, b_counts))
    if 2 * (b_among + 1) <= p.d:
        assert capacity_polluting(p, part, polluting(b_among + 1, b_counts)) <= b_base
    assert capacity_polluting(wider, part, polluting(b_among, b_counts)) >= b_base


@settings(max_examples=150, derandomize=True)
@given(random_setup(), st.data())
def test_pollution_dominance_pointwise(setup, data):
    p, part = setup
    counts = tuple(
        data.draw(st.integers(0, max(0, (p.t - u) // 2))) for u in part.groups
    )
    among = data.draw(st.integers(0, p.d // 2))
    s = capacity_selfish(p, part, selfish(among, counts))
    b = capacity_polluting(p, part, polluting(among, counts))
    assert b <= s


@settings(max_examples=150, derandomize=True)
@given(random_setup(), st.data())
def test_capacity_concave_in_bandwidth_pair(setup, data):
    p, part = setup
    b1 = data.draw(small_fracs)
    bp1 = data.draw(small_fracs)
    b2 = data.draw(small_fracs)
    bp2 = data.draw(small_fracs)
    theta = data.draw(st.fractions(min_value=F(1, 10), max_value=F(9, 10), max_denominator=10))
    mixed = p.with_point(
        p.alpha, theta * b1 + (1 - theta) * b2, theta * bp1 + (1 - theta) * bp2
    )
    va = mincut_collab(p.with_point(p.alpha, b1, bp1), part)
    vb = mincut_collab(p.with_point(p.alpha, b2, bp2), part)
    assert mincut_collab(mixed, part) >= theta * va + (1 - theta) * vb
