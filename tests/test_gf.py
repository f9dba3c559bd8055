"""Field arithmetic, matrices and Reed-Solomon decoding.

Oracles used here are independent of the table-driven implementation:
carry-less multiply with long division for products, exhaustive search
for inverses, and subset-consistency checks and the exhaustive-subset
decoder (``oracles.oracle_rs_decode``) for decoding.
"""

import copy
import gc
import pickle
import random
import threading
import time
import weakref
from dataclasses import FrozenInstanceError
from itertools import combinations
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from collabregen import gf
from collabregen.gf import (
    ERASED,
    DecodeAmbiguityError,
    FieldElement,
    FieldMatrix,
    FieldMismatchError,
    InsufficientSymbolsError,
    PRIMITIVE_POLYNOMIALS,
    RsCode,
    SingularMatrixError,
    dot,
    field,
    rs_decode,
)
from collabregen.exactcode import (
    Behavior,
    FragmentDigestTable,
    NodeBlock,
    ObjectMatrix,
    collaborative_repair,
    encode_object,
    progressive_repair_with_digests,
)
from oracles import oracle_interpolate, oracle_rs_decode


def slow_mul(a: int, b: int, m: int) -> int:
    """Carry-less multiply then reduce modulo the primitive polynomial."""
    poly = PRIMITIVE_POLYNOMIALS[m]
    prod = 0
    while b:
        if b & 1:
            prod ^= a
        a <<= 1
        b >>= 1
    for shift in range(prod.bit_length() - m, -1, -1):
        if prod >> (shift + m) & 1:
            prod ^= poly << shift
    return prod


def slow_inv(a: int, m: int) -> int:
    for b in range(1, 1 << m):
        if slow_mul(a, b, m) == 1:
            return b
    raise AssertionError(f"no inverse for {a} in GF(2^{m})")


GF8 = field(3)
W = GF8.generator


def e8(v: int) -> FieldElement:
    return GF8.element(v)


class TestFieldOps:
    def test_w_cubed_is_w_plus_one(self):
        # bits: 010 * 100 -> 011
        assert (W * W**2).value == 0b011
        assert W**3 == W + GF8.one

    def test_multiplicative_identity(self):
        for a in GF8.elements():
            assert a * GF8.one == a

    def test_power_cycle_via_log_table(self):
        # w^7 = 1, so w^3 * w^5 = w^8 = w; cross-check with the slow oracle.
        table = {}
        acc = 1
        for i in range(7):
            table[i] = acc
            acc = slow_mul(acc, 2, 3)
        assert W**3 * W**5 == W
        assert slow_mul(table[3], table[5], 3) == table[1]

    @pytest.mark.parametrize("m", [2, 3, 4])
    def test_mul_matches_slow_oracle_exhaustive(self, m):
        f = field(m)
        for a in range(f.order):
            for b in range(f.order):
                assert f.mul(a, b) == slow_mul(a, b, m)

    @pytest.mark.parametrize("m", [2, 3, 4])
    def test_field_axioms_exhaustive(self, m):
        f = field(m)
        rng = range(f.order)
        for a in rng:
            for b in rng:
                assert f.mul(a, b) == f.mul(b, a)
                for c in rng:
                    assert f.mul(f.mul(a, b), c) == f.mul(a, f.mul(b, c))
                    assert f.mul(a, b ^ c) == f.mul(a, b) ^ f.mul(a, c)

    @settings(max_examples=200, derandomize=True)
    @given(st.sampled_from([5, 8, 12, 16]), st.data())
    def test_field_axioms_randomized_large_m(self, m, data):
        f = field(m)
        pick = st.integers(min_value=0, max_value=f.order - 1)
        a, b, c = (data.draw(pick) for _ in range(3))
        assert f.mul(a, b) == f.mul(b, a)
        assert f.mul(f.mul(a, b), c) == f.mul(a, f.mul(b, c))
        assert f.mul(a, b ^ c) == f.mul(a, b) ^ f.mul(a, c)
        assert f.mul(a, b) == slow_mul(a, b, m)

    def test_generator_has_full_order(self):
        for m in PRIMITIVE_POLYNOMIALS:
            f = field(m)
            acc, seen = 1, set()
            for _ in range(f.order - 1):
                seen.add(acc)
                acc = f.mul(acc, 2)
            assert acc == 1 and len(seen) == f.order - 1

    def test_inverse_of_one(self):
        assert GF8.one.inverse() == GF8.one

    def test_inverse_of_w_is_w_to_the_sixth(self):
        assert W.inverse() == W**6
        assert slow_inv(2, 3) == (W**6).value

    @pytest.mark.parametrize("m", [2, 3, 4, 8])
    def test_inverse_matches_exhaustive_search(self, m):
        f = field(m)
        sample = range(1, f.order) if m <= 4 else random.Random(0).sample(range(1, f.order), 32)
        for a in sample:
            assert f.inv(a) == slow_inv(a, m)

    def test_zero_has_no_inverse(self):
        with pytest.raises(ZeroDivisionError):
            GF8.zero.inverse()

    def test_mixed_field_operands_rejected(self):
        with pytest.raises(FieldMismatchError):
            W * field(4).one

    def test_element_range_checked(self):
        with pytest.raises(ValueError):
            GF8.element(8)


class TestInternedElements:
    """One element object per (field, value): building one is a table
    lookup, and equal elements are identical."""

    @settings(max_examples=200, derandomize=True)
    @given(st.integers(min_value=2, max_value=16), st.data())
    def test_equal_elements_are_the_tables_instance(self, m, data):
        f = field(m)
        pick = st.integers(min_value=0, max_value=f.order - 1)
        a, b = data.draw(pick), data.draw(pick)
        e = data.draw(st.integers(min_value=-3, max_value=40))
        x, y = FieldElement(a, f), FieldElement(b, f)
        assert FieldElement(a, f) is x and f.element(a) is x
        assert x + y is FieldElement(a ^ b, f)
        assert x * y is FieldElement(f.mul(a, b), f)
        if b:
            assert x / y is FieldElement(f.div(a, b), f)
        if a:
            assert x.inverse() is FieldElement(f.inv(a), f)
        if a or e >= 0:
            assert x**e is FieldElement(f.pow(a, e), f)
        assert hash(x) == hash((a, f))
        assert (x == y) == (a == b) and (x != y) == (a != b)

    def test_equality_and_hash_go_by_value_and_field(self):
        # an instance the table does not hold, as two racing threads may build
        twin = object.__new__(FieldElement)
        object.__setattr__(twin, "value", 5)
        object.__setattr__(twin, "field", GF8)
        assert twin is not e8(5)
        assert twin == e8(5) and hash(twin) == hash(e8(5))
        assert twin != e8(4) and twin != field(4).element(5)
        assert (twin, e8(1)) == (e8(5), e8(1))
        assert twin != 5

    def test_elements_are_frozen(self):
        e = e8(3)
        with pytest.raises(FrozenInstanceError):
            e.value = 4
        with pytest.raises(FrozenInstanceError):
            e.field = field(4)
        with pytest.raises(FrozenInstanceError):
            del e.value
        assert e.value == 3 and e.field is GF8

    @pytest.mark.parametrize("value", [1.5, True, "3", None])
    def test_value_must_be_an_int(self, value):
        with pytest.raises(TypeError):
            FieldElement(value, GF8)

    @pytest.mark.parametrize("value", [-1, GF8.order])
    def test_value_must_be_in_range(self, value):
        with pytest.raises(ValueError, match="outside GF"):
            FieldElement(value, GF8)

    def test_racing_threads_build_equal_elements(self):
        f = gf.GF(8)  # a fresh table, not the shared field's
        start = threading.Barrier(4)
        results = [None] * 4

        def build(i):
            start.wait()
            results[i] = [FieldElement(v, f) for v in range(f.order)]

        threads = [threading.Thread(target=build, args=(i,)) for i in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        for v in range(f.order):
            built = [result[v] for result in results]
            assert all(e.value == v and e.field is f for e in built)
            assert all(a == b and hash(a) == hash(b) for a in built for b in built)
        assert len(f._elements) == f.order
        assert [e.value for e in f._elements] == list(range(f.order))

    def test_racing_first_calls_share_one_field(self, monkeypatch):
        # two threads that build GF(2^5) at once, each slowed after its
        # tables, both get the field stored first: elements of the two mix
        init = gf.GF.__init__

        def slow_init(self, m):
            init(self, m)
            time.sleep(0.05)

        field(5)  # so the cache entry is restored after the test
        monkeypatch.delitem(gf._FIELD_CACHE, 5)
        monkeypatch.setattr(gf.GF, "__init__", slow_init)
        got = []
        threads = [threading.Thread(target=lambda: got.append(field(5))) for _ in range(2)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=10)
            assert not thread.is_alive()
        assert got[0] is got[1] is gf._FIELD_CACHE[5]
        assert got[0].element(3) + got[1].element(6) is got[0].element(5)


def _pickled(obj):
    return pickle.loads(pickle.dumps(obj))


@pytest.mark.parametrize("clone", [copy.copy, copy.deepcopy, _pickled], ids=["copy", "deepcopy", "pickle"])
class TestCopiesShareTheField:
    """A copied or unpickled field is the shared instance, so copies of
    elements, codes and blocks mix freely with the originals."""

    def test_field_and_element(self, clone):
        f = field(8)
        assert clone(f) is f
        e = f.element(77)
        assert clone(e) is e
        assert clone(e) * e is e * e

    def test_code_decodes_the_originals_word(self, clone):
        f = field(8)
        code = RsCode.with_power_points(f, 10, 4, first_power=1)
        msg = tuple(f.element(v) for v in (3, 141, 59, 26))
        word = code.encode(msg)
        copied = clone(code)
        assert copied.field is f
        assert all(a is b for a, b in zip(copied.evaluation_points, code.evaluation_points))
        received = [(i, word[i] if i % 3 else ERASED) for i in range(code.n)]
        assert rs_decode(copied, received) == msg

    def test_block(self, clone):
        f = field(8)
        code = RsCode.with_power_points(f, 10, 4, first_power=1)
        block = NodeBlock(3, code.column(2), (f.element(9), f.element(200)))
        copied = clone(block)
        assert copied == block
        assert all(a is b for a, b in zip(copied.column + copied.payload, block.column + block.payload))


def identity(f, n: int) -> FieldMatrix:
    return FieldMatrix(f, n, n, [int(i == j) for i in range(n) for j in range(n)])


def generator_columns(code: RsCode, positions) -> FieldMatrix:
    """The generator matrix's columns at ``positions``."""
    return FieldMatrix.vandermonde([code.evaluation_points[p] for p in positions], code.kappa)


class TestFieldMatrix:
    def test_solve_identity_returns_rhs(self):
        eye = identity(GF8, 3)
        b = FieldMatrix.from_rows(GF8, [[1, 2], [3, 4], [5, 6]])
        assert eye.solve(b) == b

    def test_solve_round_trip_random_gf16(self):
        f = field(4)
        rng = random.Random(1234)
        for _ in range(10):
            while True:
                a = FieldMatrix(f, 5, 5, [rng.randrange(f.order) for _ in range(25)])
                try:
                    a.solve(identity(f, 5))
                    break
                except SingularMatrixError:
                    continue
            x = FieldMatrix(f, 5, 3, [rng.randrange(f.order) for _ in range(15)])
            assert a.solve(a @ x) == x

    def test_singular_matrix_reported(self):
        a = FieldMatrix.from_rows(GF8, [[1, 2], [1, 2]])
        with pytest.raises(SingularMatrixError):
            a.solve(identity(GF8, 2))

    def test_vandermonde_square_subsets_invertible(self):
        code = RsCode.with_power_points(GF8, 7, 3, first_power=1)
        for cols in combinations(range(7), 3):
            sub = generator_columns(code, cols)
            assert sub.solve(identity(GF8, 3)) @ sub == identity(GF8, 3)

    def test_matmul_shape_mismatch(self):
        a = identity(GF8, 2)
        b = identity(GF8, 3)
        with pytest.raises(ValueError):
            a @ b

    def test_entries_must_be_ints(self):
        # a float or a bool was truncated to an int, or kept until a
        # product indexed the log table with it
        f = field(3)
        with pytest.raises(TypeError, match="entry 2.7 must be an int, got float"):
            FieldMatrix.from_rows(f, [[2.7, 1], [1, 3]])
        with pytest.raises(TypeError, match="entry True must be an int, got bool"):
            FieldMatrix.from_rows(f, [[2, 1], [True, 3]])
        with pytest.raises(TypeError, match="entry 1.5 must be an int, got float"):
            FieldMatrix(f, 1, 2, [1.5, 2])
        assert FieldMatrix.from_rows(f, [[f.element(2), 1]]) == FieldMatrix(f, 1, 2, [2, 1])


def reference_generator_rows() -> list[list[int]]:
    # The (7,3) generator over GF(8): columns (1, x, x^2) at points
    # w, w^2, w^3, w^4, w^5, w^6, 1, written with bit values.
    return [
        [1, 1, 1, 1, 1, 1, 1],
        [2, 4, 3, 6, 7, 5, 1],
        [4, 6, 5, 2, 3, 7, 1],
    ]


class TestRsCode:
    def setup_method(self):
        self.code = RsCode.with_power_points(GF8, 7, 3, first_power=1)
        self.rng = random.Random(99)

    def random_message(self):
        return tuple(e8(self.rng.randrange(8)) for _ in range(3))

    def test_generator_matrix_matches_reference(self):
        assert self.code.generator_matrix().int_rows() == reference_generator_rows()

    def test_recover_message_from_known_columns(self):
        # Solving against columns {0,1,2} of the generator recovers the message.
        msg = (e8(3), e8(5), e8(6))
        word = self.code.encode(msg)
        g = generator_columns(self.code, [0, 1, 2])
        rhs = FieldMatrix.from_rows(GF8, [[word[0].value, word[1].value, word[2].value]])
        x = g.transpose().solve(rhs.transpose())
        assert tuple(x.column(0)) == msg

    def test_encode_decode_identity_512_messages(self):
        for _ in range(512):
            msg = self.random_message()
            word = self.code.encode(msg)
            assert rs_decode(self.code, list(enumerate(word))) == msg

    def test_four_erasures_decoded(self):
        msg = self.random_message()
        word = self.code.encode(msg)
        received = [(i, word[i] if i > 3 else ERASED) for i in range(7)]
        assert rs_decode(self.code, received) == msg

    def test_two_errors_decoded(self):
        for _ in range(50):
            msg = self.random_message()
            word = list(self.code.encode(msg))
            for pos in self.rng.sample(range(7), 2):
                word[pos] = e8((word[pos].value + 1 + self.rng.randrange(7)) % 8)
            assert rs_decode(self.code, list(enumerate(word))) == msg

    def test_erasure_plus_two_errors_flagged(self):
        # n_s + 2 n_b = 5 > 4: a constructed instance must be flagged, never
        # silently decoded; validated against an exhaustive subset check.
        msg = (e8(1), e8(2), e8(3))
        word = list(self.code.encode(msg))
        word[0] = ERASED
        word[1] = e8(word[1].value ^ 5)
        word[2] = e8(word[2].value ^ 6)
        received = list(enumerate(word))

        # Oracle: no candidate message agrees with enough symbols to certify.
        avail = [(p, s) for p, s in received if s is not None]
        for subset in combinations(avail, 3):
            g = generator_columns(self.code, [p for p, _ in subset])
            rhs = FieldMatrix.from_rows(GF8, [[s.value for _, s in subset]])
            cand = g.transpose().solve(rhs.transpose()).column(0)
            cand_word = self.code.encode(tuple(cand))
            errs = sum(1 for p, s in avail if cand_word[p] != s)
            assert 1 + 2 * errs > 4

        with pytest.raises(DecodeAmbiguityError):
            rs_decode(self.code, received)

    def test_insufficient_symbols(self):
        msg = self.random_message()
        word = self.code.encode(msg)
        with pytest.raises(InsufficientSymbolsError):
            rs_decode(self.code, [(0, word[0]), (1, word[1])])

    def test_positions_and_symbols_are_type_checked(self):
        # a float position raised TypeError from indexing the points, a
        # bool was decoded as its int, and an int symbol raised
        # AttributeError; each is now rejected before any decode
        f = field(8)
        code = RsCode.with_power_points(f, 6, 3, 1)
        msg = (f.element(7), f.element(0), f.element(200))
        w = code.encode(msg)
        with pytest.raises(ValueError, match=r"position 2\.0 is not an int"):
            rs_decode(code, [(2.0, w[2]), (0, w[0]), (1, w[1])])
        with pytest.raises(ValueError, match="position True is not an int"):
            rs_decode(code, [(True, w[1]), (0, w[0]), (2, w[2])])
        with pytest.raises(ValueError, match=r"position 4\.0 is not an int"):
            rs_decode(code, [(0, w[0]), (1, w[1]), (2, w[2]), (4.0, ERASED)])
        with pytest.raises(TypeError, match=f"symbol {w[0].value} is neither a FieldElement nor ERASED"):
            rs_decode(code, [(0, w[0].value), (1, w[1]), (2, w[2])])
        assert rs_decode(code, [(2, w[2]), (0, w[0]), (1, w[1]), (4, ERASED)]) == msg


def decode_or_flag(decode, code, received):
    try:
        return decode(code, received)
    except DecodeAmbiguityError:
        return "flagged"


@st.composite
def noisy_words(draw):
    """A code at arbitrary distinct points (0 included), a message (often
    all-zero), and its word with erasures and up to one error past the
    radius, as (code, message, received, within_radius)."""
    m = draw(st.sampled_from([2, 3, 4, 5]))
    f = field(m)
    n = draw(st.integers(2, min(f.order, 9)))
    kappa = draw(st.integers(1, n - 1))
    points = draw(st.lists(st.integers(0, f.order - 1), min_size=n, max_size=n, unique=True))
    code = RsCode(f, n, kappa, tuple(f.element(p) for p in points))
    symbol = st.integers(0, f.order - 1)
    values = draw(
        st.one_of(st.just([0] * kappa), st.lists(symbol, min_size=kappa, max_size=kappa))
    )
    message = tuple(f.element(v) for v in values)
    word = list(code.encode(message))
    n_s = draw(st.integers(0, n - kappa))
    n_b = draw(st.integers(0, min(n - n_s, (n - kappa - n_s) // 2 + 1)))
    order = draw(st.permutations(range(n)))
    for pos in order[:n_s]:
        word[pos] = ERASED
    for pos in order[n_s:n_s + n_b]:
        word[pos] = f.element(word[pos].value ^ draw(st.integers(1, f.order - 1)))
    received = [(pos, word[pos]) for pos in order]
    return code, message, received, n_s + 2 * n_b <= n - kappa


class TestRsDecodeDifferential:
    @settings(max_examples=400, derandomize=True, deadline=None)
    @given(noisy_words())
    def test_matches_exhaustive_oracle(self, case):
        code, message, received, within = case
        got = decode_or_flag(rs_decode, code, received)
        assert got == decode_or_flag(oracle_rs_decode, code, received)
        if within:
            assert got == message

    def test_all_zero_word_with_errors(self):
        code = RsCode.with_power_points(GF8, 7, 3, first_power=1)
        word = [GF8.zero] * 7
        word[2], word[5] = e8(3), e8(6)
        assert rs_decode(code, list(enumerate(word))) == (GF8.zero,) * 3


class TestLargeCodes:
    """Sizes beyond exhaustive-subset decoding: C(20,10) = 184,756 subsets
    took 72 s, C(24,12) = 2.7 million exceeded its cap, (255,223) is out
    of reach.  Each decode gets a wall-clock budget far above its cost."""

    @pytest.mark.parametrize(
        "m, n, kappa, errors, budget_s",
        [(8, 20, 10, 2, 1.0), (8, 24, 12, 6, 1.0), (8, 255, 223, 16, 3.0)],
    )
    def test_decodes_true_message_within_budget(self, m, n, kappa, errors, budget_s):
        f = field(m)
        rng = random.Random(n)
        code = RsCode.with_power_points(f, n, kappa, first_power=1)
        message = tuple(f.element(rng.randrange(f.order)) for _ in range(kappa))
        word = list(code.encode(message))
        for pos in rng.sample(range(n), errors):
            word[pos] = f.element(word[pos].value ^ rng.randrange(1, f.order))
        start = time.perf_counter()
        got = rs_decode(code, list(enumerate(word)))
        elapsed = time.perf_counter() - start
        assert got == message
        assert elapsed < budget_s, f"({n},{kappa}) took {elapsed:.3f}s"

    def test_exactly_kappa_decodes_within_budget(self):
        # a fresh (255,223) code, so no decode can lean on an earlier one
        f = field(8)
        rng = random.Random(223)
        code = RsCode.with_power_points(f, 255, 223, first_power=1)
        message = tuple(f.element(rng.randrange(f.order)) for _ in range(223))
        word = code.encode(message)
        first = rng.sample(range(255), 223)
        second = rng.sample(range(255), 223)
        assert set(first) != set(second)
        for positions in (first, second):
            start = time.perf_counter()
            got = rs_decode(code, [(p, word[p]) for p in positions])
            elapsed = time.perf_counter() - start
            assert got == message
            assert elapsed < 0.5, f"exactly-kappa (255,223) took {elapsed:.3f}s"

    def test_one_error_past_radius_flagged(self):
        # (24,12) with 7 errors: 2 * 7 > n - kappa = 12, and no other
        # codeword lies within 6 of this word, so it must be flagged
        f = field(8)
        rng = random.Random(7)
        code = RsCode.with_power_points(f, 24, 12, first_power=1)
        word = list(code.encode(tuple(f.element(rng.randrange(256)) for _ in range(12))))
        for pos in range(7):
            word[pos] = f.element(word[pos].value ^ 1)
        with pytest.raises(DecodeAmbiguityError):
            rs_decode(code, list(enumerate(word)))


# --- the table-driven kernel against naive FieldElement arithmetic ---

FIELD_EXPONENTS = st.integers(2, 8)


def symbols(f):
    """Field values with zero drawn often, so the zero guards are hit."""
    return st.one_of(st.just(0), st.integers(0, f.order - 1))


def naive_dot(f, a, b):
    acc = f.zero
    for x, y in zip(a, b):
        acc = acc + f.element(x) * f.element(y)
    return acc.value


def naive_matmul(a, b):
    return [
        [naive_dot(a.field, a.int_rows()[i], b.transpose().int_rows()[j]) for j in range(b.cols)]
        for i in range(a.rows)
    ]


class TestKernelMatchesNaive:
    @settings(max_examples=200, derandomize=True, deadline=None)
    @given(FIELD_EXPONENTS, st.data())
    def test_dot(self, m, data):
        f = field(m)
        size = data.draw(st.integers(0, 10))
        a = data.draw(st.lists(symbols(f), min_size=size, max_size=size))
        b = data.draw(st.lists(symbols(f), min_size=size, max_size=size))
        assert dot(f, a, b) == naive_dot(f, a, b)

    @settings(max_examples=150, derandomize=True, deadline=None)
    @given(FIELD_EXPONENTS, st.data())
    def test_encode(self, m, data):
        f = field(m)
        n = data.draw(st.integers(2, min(f.order, 10)))
        kappa = data.draw(st.integers(1, n - 1))
        points = data.draw(
            st.lists(st.integers(0, f.order - 1), min_size=n, max_size=n, unique=True)
        )
        code = RsCode(f, n, kappa, tuple(f.element(p) for p in points))
        message = data.draw(st.lists(symbols(f), min_size=kappa, max_size=kappa))
        powers = [[f.element(p) ** j for j in range(kappa)] for p in points]
        want = [naive_dot(f, message, [x.value for x in col]) for col in powers]
        assert [s.value for s in code.encode([f.element(v) for v in message])] == want
        assert code.column_values == tuple(tuple(x.value for x in col) for col in powers)

    @settings(max_examples=150, derandomize=True, deadline=None)
    @given(FIELD_EXPONENTS, st.data())
    def test_matmul_and_solve(self, m, data):
        f = field(m)
        n, k, w = (data.draw(st.integers(1, 5)) for _ in range(3))
        a = FieldMatrix(f, n, k, data.draw(st.lists(symbols(f), min_size=n * k, max_size=n * k)))
        b = FieldMatrix(f, k, w, data.draw(st.lists(symbols(f), min_size=k * w, max_size=k * w)))
        assert (a @ b).int_rows() == naive_matmul(a, b)
        square = FieldMatrix(f, k, k, data.draw(st.lists(symbols(f), min_size=k * k, max_size=k * k)))
        try:
            x = square.solve(b)
        except SingularMatrixError:
            return
        assert naive_matmul(square, x) == b.int_rows()


@st.composite
def kappa_symbol_words(draw):
    """A code whose points include 0, and exactly kappa received symbols,
    the one at point 0 among them, often all zero; the other positions
    are erased or absent.  As (code, received)."""
    f = field(draw(st.sampled_from([2, 3, 4, 5])))
    n = draw(st.integers(2, min(f.order, 9)))
    kappa = draw(st.integers(1, n - 1))
    points = draw(st.lists(st.integers(1, f.order - 1), min_size=n - 1, max_size=n - 1, unique=True))
    zero_at = draw(st.integers(0, n - 1))
    points.insert(zero_at, 0)
    code = RsCode(f, n, kappa, tuple(f.element(p) for p in points))
    others = draw(st.permutations([i for i in range(n) if i != zero_at]))
    kept = [zero_at] + others[: kappa - 1]
    values = draw(st.one_of(st.just([0] * kappa), st.lists(symbols(f), min_size=kappa, max_size=kappa)))
    received = [(pos, f.element(v)) for pos, v in zip(kept, values)]
    received += [(pos, ERASED) for pos in others[kappa - 1:] if draw(st.booleans())]
    return code, draw(st.permutations(received))


class TestExactKappaPath:
    """Exactly kappa symbols return the interpolant; more go through Gao's
    Euclid steps, whose result needs no error recount."""

    @settings(max_examples=300, derandomize=True, deadline=None)
    @given(kappa_symbol_words())
    def test_interpolant_matches_exhaustive_oracle(self, case):
        code, received = case
        with mock.patch.object(gf, "_gao", wraps=gf._gao) as gao:
            got = decode_or_flag(rs_decode, code, received)
        assert got == oracle_rs_decode(code, received)
        assert gao.call_count == 0
        word = code.encode(got)
        assert all(word[pos] == sym for pos, sym in received if sym is not None)

    @settings(max_examples=200, derandomize=True, deadline=None)
    @given(noisy_words())
    def test_more_symbols_stay_within_radius(self, case):
        # Gao's result is returned without recounting its errors: every
        # accepted word must still disagree with at most (N - kappa)/2
        # of the N received symbols
        code, _, received, _ = case
        available = [(pos, sym) for pos, sym in received if sym is not None]
        got = decode_or_flag(rs_decode, code, received)
        assert got == decode_or_flag(oracle_rs_decode, code, received)
        if got != "flagged":
            word = code.encode(got)
            wrong = sum(word[pos] != sym for pos, sym in available)
            assert 2 * wrong <= len(available) - code.kappa

    def test_beyond_radius_with_extra_symbols_flagged(self):
        # (8,2) over GF(16) at points 0..7, 5 symbols, 2 of them wrong:
        # n_s + 2*n_b = 3 + 4 > 6, and no codeword is within the radius
        f = field(4)
        code = RsCode(f, 8, 2, tuple(f.element(p) for p in range(8)))
        word = code.encode((f.element(5), f.element(3)))
        received = [(pos, f.element(word[pos].value ^ (pos < 2))) for pos in range(5)]
        assert decode_or_flag(oracle_rs_decode, code, received) == "flagged"
        assert decode_or_flag(rs_decode, code, received) == "flagged"


# --- exactly-kappa decodes: one interpolation, no state kept on the code ---


@st.composite
def exact_kappa_reads(draw):
    """A code over GF(2^m), m = 2..8, whose points often include 0, and
    exactly kappa received symbols, often all zero, in any order, with
    other positions erased or absent.  As (code, received)."""
    f = field(draw(FIELD_EXPONENTS))
    n = draw(st.integers(2, min(f.order, 10)))
    kappa = draw(st.integers(1, n - 1))
    points = draw(st.lists(st.integers(0, f.order - 1), min_size=n, max_size=n, unique=True))
    if 0 not in points and draw(st.booleans()):
        points[draw(st.integers(0, n - 1))] = 0
    code = RsCode(f, n, kappa, tuple(f.element(p) for p in points))
    order = draw(st.permutations(range(n)))
    values = draw(st.one_of(st.just([0] * kappa), st.lists(symbols(f), min_size=kappa, max_size=kappa)))
    received = [(pos, f.element(v)) for pos, v in zip(order, values)]
    received += [(pos, ERASED) for pos in order[kappa:] if draw(st.booleans())]
    return code, draw(st.permutations(received))


def fresh_copy(code):
    return RsCode(code.field, code.n, code.kappa, code.evaluation_points)


class TestDecodeMatrixMemo:
    @settings(max_examples=300, derandomize=True, deadline=None)
    @given(exact_kappa_reads())
    def test_matches_oracle_and_kernel(self, case):
        # a code that already decoded the same positions in another order
        # must answer from the symbols given now
        code, received = case
        f = code.field
        kept = [(pos, sym) for pos, sym in received if sym is not None]
        points = [code.evaluation_points[pos].value for pos, _ in kept]
        (msg,) = gf._decode_rows(f, points, [[sym.value for _, sym in kept]], code.kappa)
        want = oracle_rs_decode(code, received)
        assert [v.value for v in want] == msg
        assert rs_decode(fresh_copy(code), received) == want
        warmed = fresh_copy(code)
        assert rs_decode(warmed, kept[::-1]) == want
        assert rs_decode(warmed, received) == want

    def test_memo_is_per_code_and_dies_with_it(self):
        # an exactly-kappa decode, a collaborative repair and a digest repair
        # leave no state on the code (its int point table is built with
        # it), and the code is freed with its last reference
        f = field(8)
        code = RsCode.with_power_points(f, 16, 6, first_power=1)
        assert "point_values" in vars(code)
        message = tuple(f.element(v) for v in range(1, 7))
        word = code.encode(message)
        blocks = encode_object(ObjectMatrix.random(f, 3, 6, random.Random(5)), code)
        before = dict(vars(code))
        assert "column_values" in before
        assert rs_decode(code, [(p, word[p]) for p in range(6)]) == message
        assert vars(code) == before
        live, failed = blocks[3:], [1, 2, 3]
        repaired, _ = collaborative_repair(code, live, failed)
        assert repaired == blocks[:3]
        assert vars(code) == before
        table = FragmentDigestTable.from_blocks("obj", blocks)
        repaired, _ = progressive_repair_with_digests(code, live, failed, {4: Behavior.POLLUTING}, table)
        assert repaired == blocks[:3]
        assert vars(code) == before
        ref = weakref.ref(code)
        del code
        gc.collect()
        assert ref() is None


# --- Newton-form evaluation ---


@st.composite
def points_with_zero(draw, min_size=1):
    """(f, points): distinct points of GF(2^m), m = 2..8, with 0 among them."""
    f = field(draw(FIELD_EXPONENTS))
    n = draw(st.integers(min_size, min(f.order, 8)))
    points = draw(st.lists(st.integers(1, f.order - 1), min_size=n - 1, max_size=n - 1, unique=True))
    points.insert(draw(st.integers(0, n - 1)), 0)
    return f, points


def naive_interpolant_at(f, points, values, x):
    """sum_i y_i prod_{j != i} (x - a_j) / (a_i - a_j), in FieldElements."""
    acc = f.zero
    for i, (a, y) in enumerate(zip(points, values)):
        term = f.element(y)
        for j, b in enumerate(points):
            if j != i:
                term = term * (f.element(x) - f.element(b)) / (f.element(a) - f.element(b))
        acc = acc + term
    return acc.value


def newton_at(f, points, values, targets):
    return gf._newton_at(f, points, gf._newton(f, points, values), targets)


class TestNewtonAt:
    @settings(max_examples=300, derandomize=True, deadline=None)
    @given(points_with_zero(), st.data())
    def test_matches_naive_interpolant(self, case, data):
        f, points = case
        values = data.draw(st.lists(symbols(f), min_size=len(points), max_size=len(points)))
        targets = data.draw(st.lists(st.integers(0, f.order - 1), max_size=4))
        targets += [0, data.draw(st.sampled_from(points))]
        assert newton_at(f, points, values, targets) == [
            naive_interpolant_at(f, points, values, x) for x in targets
        ]

    def test_one_point_and_targets_on_the_points(self):
        f = field(3)
        assert newton_at(f, [5], [4], [0, 5, 6]) == [4, 4, 4]
        assert newton_at(f, [0, 3, 6], [7, 2, 5], [3, 0, 6]) == [2, 7, 5]
        assert newton_at(f, [0, 3, 6], [7, 2, 5], []) == []


# --- the interpolation kernels against the synthetic-division reference ---


@st.composite
def wide_point_sets(draw, min_size=1):
    """(f, points): up to 40 distinct points of GF(2^4), GF(2^8) or
    GF(2^16), with 0 among them about half the time."""
    f = field(draw(st.sampled_from([4, 8, 16])))
    n = draw(st.integers(min_size, min(f.order - 1, 40)))
    points = draw(st.lists(st.integers(1, f.order - 1), min_size=n, max_size=n, unique=True))
    if draw(st.booleans()):
        points[draw(st.integers(0, n - 1))] = 0
    return f, points


class TestInterpolationReference:
    @settings(max_examples=200, derandomize=True, deadline=None)
    @given(wide_point_sets(), st.data())
    def test_interpolate_matches_reference(self, case, data):
        # Newton form gives the same g0 and, as the interpolant is unique,
        # the same trimmed g1 of each row, one row per call; g1 takes
        # every value of its row
        f, points = case
        n = len(points)
        row = st.one_of(st.just([0] * n), st.lists(symbols(f), min_size=n, max_size=n))
        rows = data.draw(st.lists(row, min_size=1, max_size=4))
        g0, g1s = oracle_interpolate(f, points, rows)
        assert gf._expand(f, points, [0] * n + [1]) == g0
        for row, g1 in zip(rows, g1s):
            assert gf._expand(f, points, gf._newton(f, points, row)) == g1
            for a, y in zip(points, row):
                acc = 0
                for c in reversed(g1):  # Horner's rule
                    acc = f.mul(acc, a) ^ c
                assert acc == y

    @settings(max_examples=100, derandomize=True, deadline=None)
    @given(wide_point_sets(min_size=2), st.data())
    def test_decode_matrix_matches_reference(self, case, data):
        # exactly kappa received symbols decode to their interpolant
        f, points = case
        n = len(points)
        kappa = data.draw(st.integers(1, n - 1))
        code = RsCode(f, n, kappa, tuple(f.element(p) for p in points))
        positions = data.draw(st.permutations(range(n)))[:kappa]
        values = data.draw(st.lists(symbols(f), min_size=kappa, max_size=kappa))
        _, (g1,) = oracle_interpolate(f, [points[p] for p in positions], [values])
        got = rs_decode(code, [(p, f.element(v)) for p, v in zip(positions, values)])
        assert [v.value for v in got] == g1 + [0] * (kappa - len(g1))


# --- the decode kernel against per-row rs_decode: a word whole or raise ---


@st.composite
def decode_rows_cases(draw):
    """A code whose points include 0, N >= kappa received positions
    (often exactly kappa; the one at point 0 often among them) and rows
    of values there: codewords with up to one error past the radius, or
    arbitrary values.  As (code, positions, rows)."""
    f, points = draw(points_with_zero(min_size=2))
    n = len(points)
    kappa = draw(st.integers(1, n - 1))
    code = RsCode(f, n, kappa, tuple(f.element(p) for p in points))
    size = draw(st.one_of(st.just(kappa), st.integers(kappa, n)))
    order = draw(st.permutations(range(n)))
    if draw(st.booleans()):
        order.remove(points.index(0))
        order.insert(0, points.index(0))
    positions = order[:size]
    rows = []
    for _ in range(draw(st.integers(1, 4))):
        if draw(st.booleans()):
            rows.append(draw(st.lists(symbols(f), min_size=size, max_size=size)))
            continue
        message = draw(st.lists(symbols(f), min_size=kappa, max_size=kappa))
        word = code.encode([f.element(v) for v in message])
        row = [word[p].value for p in positions]
        for i in draw(st.sets(st.integers(0, size - 1), max_size=(size - kappa) // 2 + 1)):
            row[i] ^= draw(st.integers(1, f.order - 1))
        rows.append(row)
    return code, positions, rows


class TestDecodeRows:
    @settings(max_examples=400, derandomize=True, deadline=None)
    @given(decode_rows_cases())
    def test_matches_rs_decode_per_row(self, case):
        # the word raises exactly when rs_decode, and the exhaustive oracle,
        # flag some row of it, after interpolating the rows up to the first
        # flagged one; otherwise it decodes to their messages
        code, positions, rows = case
        f = code.field
        points = [code.evaluation_points[p].value for p in positions]
        with mock.patch.object(gf, "_newton", wraps=gf._newton) as newton, \
                mock.patch.object(gf, "_gao", wraps=gf._gao) as gao, \
                mock.patch.object(gf, "_expand", wraps=gf._expand) as expand:
            try:
                got = gf._decode_rows(f, points, rows, code.kappa)
            except DecodeAmbiguityError:
                got = "flagged"
        for decode in (rs_decode, oracle_rs_decode):
            want = [
                decode_or_flag(decode, code, [(p, f.element(y)) for p, y in zip(positions, row)])
                for row in rows
            ]
            if "flagged" in want:
                assert got == "flagged"
                decoded = rows[: want.index("flagged") + 1]
            else:
                assert got == [[v.value for v in msg] for msg in want]
                decoded = rows
            assert newton.call_count == len(decoded)
        # Gao runs for exactly the decoded rows whose Newton tail
        # d_kappa..d_{N-1} is nonzero (a clean row is the message), and
        # the master polynomial g0, the one expansion of N + 1
        # coefficients, is built once if Gao runs and never otherwise
        dirty = sum(any(gf._newton(f, points, row)[code.kappa:]) for row in decoded)
        assert gao.call_count == dirty
        masters = sum(len(call.args[2]) == len(points) + 1 for call in expand.call_args_list)
        assert masters == min(dirty, 1)

    def test_first_row_beyond_radius_ends_the_word(self):
        # (8,2) over GF(16) at points 0..7, 5 symbols per row: row 0 has 2
        # wrong symbols, past the radius (5 - 2)/2, and rows 1 and 2 none;
        # the word raises after one interpolation and one Gao call
        f = field(4)
        code = RsCode(f, 8, 2, tuple(f.element(p) for p in range(8)))
        points = list(range(5))
        rows = [[s.value for s in code.encode((f.element(5), f.element(r)))[:5]] for r in range(3)]
        rows[0][0] ^= 1
        rows[0][1] ^= 1
        with mock.patch.object(gf, "_newton", wraps=gf._newton) as newton, \
                mock.patch.object(gf, "_gao", wraps=gf._gao) as gao:
            with pytest.raises(DecodeAmbiguityError):
                gf._decode_rows(f, points, rows, code.kappa)
        assert newton.call_count == 1
        assert gao.call_count == 1
        assert gf._decode_rows(f, points, rows[1:], code.kappa) == [[5, 1], [5, 2]]
