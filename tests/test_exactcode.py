"""Encoding, collection, and collaborative repair of the exact code."""

import random
from collections import Counter
from fractions import Fraction as F
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from collabregen import exactcode
from collabregen.exactcode import (
    AMBIGUOUS,
    Behavior,
    FragmentDigestTable,
    NodeBlock,
    ObjectMatrix,
    RepairFailureError,
    RepairPolicy,
    RepairReport,
    _contacts,
    _rows_at,
    collaborative_repair,
    collect,
    collect_robust,
    encode_object,
    progressive_repair_with_digests,
)
from collabregen.gf import (
    DecodeError,
    FieldElement,
    FieldMatrix,
    FieldMismatchError,
    RsCode,
    SingularMatrixError,
    dot,
    field,
    rs_decode,
)
from oracles import (
    _solve_subset,
    apply_column,
    oracle_collaborative_repair,
    oracle_collect_robust,
    oracle_contacts,
    oracle_progressive_repair_with_digests,
)

GF8 = field(3)


def demo_code() -> RsCode:
    # (7,3) over GF(8), points w, w^2, ..., w^6, 1
    return RsCode.with_power_points(GF8, 7, 3, first_power=1)


def demo_setup(seed=0, t=2):
    code = demo_code()
    rng = random.Random(seed)
    obj = ObjectMatrix.random(GF8, t, 3, rng)
    return code, obj, encode_object(obj, code)


def corrupt(block: NodeBlock, rng: random.Random) -> NodeBlock:
    f = block.payload[0].field
    payload = tuple(
        p.__class__(p.value ^ rng.randrange(1, f.order), f) for p in block.payload
    )
    return NodeBlock(block.node_id, block.column, payload)


class TestEncodeCollect:
    def test_node_one_payload_matches_formula(self):
        code, obj, blocks = demo_setup(seed=3)
        w = GF8.generator
        # node 1 stores (o_r1 + o_r2 w + o_r3 w^2) for each row r
        for r in range(2):
            row = obj.row(r)
            want = row[0] + row[1] * w + row[2] * w * w
            assert blocks[0].payload[r] == want

    def test_zero_object_encodes_to_zero(self):
        code = demo_code()
        obj = ObjectMatrix(FieldMatrix(GF8, 2, 3, [0] * 6))
        assert all(
            p.value == 0 for b in encode_object(obj, code) for p in b.payload
        )

    def test_collect_every_subset_recovers_object(self):
        code, obj, blocks = demo_setup(seed=7)
        for subset in combinations(blocks, 3):
            assert collect(list(subset)).pieces == obj.pieces

    def test_collect_rejects_a_shared_column(self):
        _, _, (b1, b2, b3, *_) = demo_setup()
        x = b1.column[1]
        for column in (b1.column, tuple(x * c for c in b1.column)):  # RS, then not RS
            block, twin = NodeBlock(1, column, b1.payload), NodeBlock(99, column, b1.payload)
            for blocks in ([block, twin, b2], [block, b2, b3, twin]):  # solved, then an extra
                with pytest.raises(ValueError, match="share a column"):
                    collect(blocks)
        # dependent non-RS columns b1, b2, b1 + b2 first, then a twin of b2
        total = NodeBlock(
            3,
            tuple(u + v for u, v in zip(b1.column, b2.column)),
            tuple(u + v for u, v in zip(b1.payload, b2.payload)),
        )
        with pytest.raises(ValueError, match="share a column"):
            collect([b1, b2, total, NodeBlock(99, b2.column, b2.payload)])

    def test_collect_checks_extra_blocks(self):
        _, obj, blocks = demo_setup()
        assert collect(blocks).pieces == obj.pieces
        six = blocks[5]
        off = NodeBlock(6, six.column, (six.payload[0] + GF8.one,) + six.payload[1:])
        with pytest.raises(ValueError, match="no unique object agrees with every block"):
            collect(blocks[:5] + [off])

    def test_collect_requires_kappa_blocks(self):
        _, _, blocks = demo_setup()
        with pytest.raises(ValueError):
            collect(blocks[:2])

    def test_round_trip_random_objects(self):
        code = demo_code()
        rng = random.Random(11)
        for _ in range(25):
            obj = ObjectMatrix.random(GF8, 2, 3, rng)
            blocks = encode_object(obj, code)
            picks = rng.sample(blocks, 3)
            assert collect(picks).pieces == obj.pieces


class TestCollectRobust:
    def test_one_polluted_block_tolerated(self):
        code, obj, blocks = demo_setup(seed=5)
        rng = random.Random(1)
        received = blocks[:5]
        received[2] = corrupt(received[2], rng)
        got = collect_robust(received, max_polluters=1)
        assert got is not AMBIGUOUS and got.pieces == obj.pieces

    def test_unpolluted_matches_collect(self):
        code, obj, blocks = demo_setup(seed=6)
        got = collect_robust(blocks[:5], max_polluters=0)
        assert got is not AMBIGUOUS and got.pieces == obj.pieces

    def test_threshold_honest_at_least_kappa_plus_polluters(self):
        # with honest blocks >= kappa + actual polluters the true object
        # always comes back, across seeded trials
        for seed in range(10):
            code, obj, blocks = demo_setup(seed=seed)
            rng = random.Random(1000 + seed)
            for polluters in (1, 2):
                received = list(blocks)  # all 7: honest = 7 - polluters
                for idx in rng.sample(range(7), polluters):
                    received[idx] = corrupt(received[idx], rng)
                got = collect_robust(received, max_polluters=polluters)
                assert got is not AMBIGUOUS and got.pieces == obj.pieces

    def test_two_polluters_among_five_ambiguous(self):
        # honest count 3 < kappa + 2: a silently wrong result must never
        # be claimed, over several seeded corruption draws
        for seed in range(8):
            code, obj, blocks = demo_setup(seed=seed)
            rng = random.Random(100 + seed)
            received = blocks[:5]
            received[0] = corrupt(received[0], rng)
            received[3] = corrupt(received[3], rng)
            got = collect_robust(received, max_polluters=2)
            assert got is AMBIGUOUS or got.pieces == obj.pieces

    def test_insufficient_blocks(self):
        _, _, blocks = demo_setup()
        with pytest.raises(ValueError):
            collect_robust(blocks[:2], max_polluters=0)

    @pytest.mark.parametrize("max_polluters", [0, 1])
    def test_duplicate_node_ids(self, max_polluters):
        _, _, (b1, b2, b3, *_) = demo_setup()
        with pytest.raises(ValueError, match="duplicate node ids"):
            collect_robust([b1, b1, b2, b3], max_polluters)

    @pytest.mark.parametrize("max_polluters", [0, 1])
    def test_shared_column(self, max_polluters):
        # a second node id claiming node 1's column and payload
        _, _, (b1, b2, b3, *_) = demo_setup()
        twin = NodeBlock(99, b1.column, b1.payload)
        with pytest.raises(ValueError, match="share a column"):
            collect_robust([b1, twin, b2, b3], max_polluters)

    @pytest.mark.parametrize("max_polluters", [0, 1])
    def test_symbols_from_another_field(self, max_polluters):
        # a GF(16) symbol among GF(8) blocks, first or later
        _, _, blocks = demo_setup()
        for i in (0, 3):
            b = blocks[i]
            odd = NodeBlock(b.node_id, b.column, (FieldElement(12, field(4)), b.payload[1]))
            read = blocks[:i] + [odd] + blocks[i + 1:5]
            with pytest.raises(FieldMismatchError):
                collect_robust(read, max_polluters)
            with pytest.raises(FieldMismatchError):
                collect(read)


def _reshaped(block: NodeBlock, change: str) -> NodeBlock:
    column, payload = block.column, block.payload
    if change == "payload-short":
        payload = payload[:-1]
    elif change == "payload-long":
        payload += (GF8.one,)
    elif change == "column-short":
        column = column[:-1]
    else:
        column += (GF8.one,)
    return NodeBlock(block.node_id, column, payload)


@pytest.mark.parametrize("where", [1, 4], ids=["solved", "extra"])
@pytest.mark.parametrize("change", ["payload-short", "payload-long", "column-short", "column-long"])
def test_block_of_another_shape_rejected(change, where):
    # one block of five whose column or payload is one entry off, among
    # the first kappa or after them
    _, _, blocks = demo_setup()
    read = blocks[:5]
    read[where] = _reshaped(read[where], change)
    for reader in (collect, lambda r: collect_robust(r, 0), lambda r: collect_robust(r, 2)):
        with pytest.raises(ValueError, match="differ in column or payload length"):
            reader(read)


def _count_calls(monkeypatch, name):
    """The argument tuples of every call to exactcode.<name> from now on."""
    calls = []
    fn = getattr(exactcode, name)

    def counted(*args):
        calls.append(args)
        return fn(*args)

    monkeypatch.setattr(exactcode, name, counted)
    return calls


def test_beyond_radius_read_classifies_its_columns_once(monkeypatch):
    # 2 * 3 > 7 - 3: erasing 3 of a pool of the first 6 blocks, C(6, 3) =
    # 20 erasure sets, beats erasing 2 of all 7, C(7, 2) = 21; each set is
    # decoded at a slice of one set of points
    _, obj, blocks = demo_setup(seed=4)
    calls = []
    rs_points = exactcode._rs_points

    def counted(*args):
        calls.append(args)
        return rs_points(*args)

    monkeypatch.setattr(exactcode, "_rs_points", counted)
    solves = _count_calls(monkeypatch, "_solve_object")
    got = collect_robust(blocks, max_polluters=3)
    assert got is not AMBIGUOUS and got.pieces == obj.pieces
    assert len(calls) == 1
    assert len(solves) == 20


@pytest.mark.parametrize(
    "n, kappa, e, decodes",
    [(16, 6, 6, 120), (24, 8, 9, 276)],
    ids=["16_6_e6", "24_8_e9"],
)
def test_beyond_radius_read_decodes_each_erasure_set(monkeypatch, n, kappa, e, decodes):
    # over GF(256) with the first e blocks polluted, past the radius: all
    # N blocks with 2 erased, C(N, 2) decodes, are the fewest erasure sets
    # (C(12, 6) = 924 for (16,6) on a pool of kappa + e blocks).  Each
    # decode of N - 2 blocks meets at most e - 2 errors, within its
    # radius (N - 2 - kappa)/2
    code = RsCode.with_power_points(field(8), n, kappa, first_power=1)
    obj = ObjectMatrix.random(code.field, 2, kappa, random.Random(n))
    rng = random.Random(kappa)
    blocks = [corrupt(b, rng) if b.node_id <= e else b for b in encode_object(obj, code)]
    solves = _count_calls(monkeypatch, "_solve_object")
    got = collect_robust(blocks[::-1], max_polluters=e)
    assert got is not AMBIGUOUS and got.pieces == obj.pieces
    assert len(solves) == decodes
    assert all(len(args[0]) == n - 2 for args in solves)


@pytest.mark.parametrize("polluted", [1, 4], ids=["at-zero", "elsewhere"])
def test_robust_read_on_points_that_include_zero(polluted):
    # e = 1 on a (7,3) code over GF(8) whose first point is 0: node 1's
    # block sits at x = 0, where the interpolant's expansion only shifts
    f = field(3)
    code = RsCode(f, 7, 3, tuple(f.element(p) for p in range(7)))
    obj = ObjectMatrix.random(f, 2, 3, random.Random(7))
    rng = random.Random(polluted)
    blocks = [corrupt(b, rng) if b.node_id == polluted else b for b in encode_object(obj, code)]
    for read in (collect_robust, oracle_collect_robust):
        got = read(blocks, 1)
        assert got is not AMBIGUOUS and got.pieces == obj.pieces


def test_within_radius_read_decodes_the_first_kappa_plus_2e_blocks(monkeypatch):
    # (12,6) with e = 1 and one polluted block: 2e <= 12 - 6, so one decode
    # of the first kappa + 2e = 8 blocks by node id, whatever their order
    code = RsCode.with_power_points(field(8), 12, 6, first_power=1)
    obj = ObjectMatrix.random(code.field, 2, 6, random.Random(12))
    rng = random.Random(1)
    blocks = [corrupt(b, rng) if b.node_id == 3 else b for b in encode_object(obj, code)]
    solves = _count_calls(monkeypatch, "_solve_object")
    got = collect_robust(blocks[::-1], max_polluters=1)
    assert got is not AMBIGUOUS and got.pieces == obj.pieces
    assert len(solves) == 1
    assert [b.node_id for b in solves[0][0]] == list(range(1, 9))


def test_read_past_n_minus_kappa_is_ambiguous(monkeypatch):
    # (10,3), t = 2, over GF(256): with e > N - kappa = 7 every object that
    # agrees with some 2 blocks qualifies, so no unique object exists and
    # the read makes no decode
    code = RsCode.with_power_points(field(8), 10, 3, first_power=1)
    obj = ObjectMatrix.random(code.field, 2, 3, random.Random(10))
    honest = encode_object(obj, code)
    solves = _count_calls(monkeypatch, "_solve_object")
    assert collect_robust(honest, max_polluters=8) is AMBIGUOUS
    # all 10 blocks consistent with a wrong object, read with e = 10: the
    # true object, which disagrees with every block, qualifies too
    wrong = encode_object(ObjectMatrix.random(code.field, 2, 3, random.Random(3)), code)
    assert all(apply_column(obj, b.column) != b.payload for b in wrong)
    assert collect_robust(wrong, max_polluters=10) is AMBIGUOUS
    assert solves == []
    # at e = N - kappa the object is still the one answer
    got = collect_robust(honest, max_polluters=7)
    assert got is not AMBIGUOUS and got.pieces == obj.pieces


@pytest.mark.parametrize("read", [7, 4], ids=["radius-2", "radius-0"])
@pytest.mark.parametrize("max_polluters", [1.5, 2.5, True, "1", -1])
def test_max_polluters_must_be_a_nonnegative_int(max_polluters, read):
    # on all 7 blocks (radius 2) or on 4 (radius 0); 1.5 used to be taken
    # as it stood, and 2.5 and "1" ended in a TypeError
    _, _, blocks = demo_setup()
    with pytest.raises(ValueError, match="max_polluters must be a nonnegative integer"):
        collect_robust(blocks[:read], max_polluters)


_READERS = {
    "collect": collect,
    "collect_robust": lambda read: collect_robust(read, 0),
    "digest_of": lambda read: FragmentDigestTable.digest_of(read[0]),
}


@pytest.mark.parametrize(
    "reader, emptied",
    [
        ("collect", "first-column"),
        ("collect", "payloads"),
        ("collect_robust", "first-column"),
        ("collect_robust", "payloads"),
        ("digest_of", "payloads"),
    ],
)
def test_block_with_an_empty_column_or_payload_rejected(reader, emptied):
    # an empty column or payload has no symbol to take the field from
    _, _, blocks = demo_setup()
    read = blocks[:5]
    if emptied == "first-column":
        read[0] = NodeBlock(1, (), read[0].payload)
    else:
        read = [NodeBlock(b.node_id, b.column, ()) for b in read]
    with pytest.raises(ValueError, match="has no"):
        _READERS[reader](read)


@st.composite
def polluted_reads(draw, inside: bool):
    """An object (often all-zero), the blocks read, up to one more of them
    polluted than the radius (read - kappa) // 2, and a max_polluters
    within that radius or beyond it: (obj, read, polluted, max_polluters).
    Sometimes, for kappa > 1, each column and payload is scaled by the
    block's point x_i, so the columns are not Reed-Solomon."""
    f = field(draw(st.sampled_from([3, 4])))
    n = draw(st.integers(4, min(f.order - 1, 8)))
    kappa = draw(st.integers(1, n - 1))
    t = draw(st.integers(1, 3))
    code = RsCode.with_power_points(f, n, kappa, first_power=draw(st.integers(0, 2)))
    symbol = st.integers(0, f.order - 1)
    values = draw(
        st.one_of(st.just([0] * (t * kappa)), st.lists(symbol, min_size=t * kappa, max_size=t * kappa))
    )
    obj = ObjectMatrix(FieldMatrix(f, t, kappa, values))
    blocks = encode_object(obj, code)
    if kappa > 1 and draw(st.booleans()):
        scaled = []
        for b in blocks:
            x = b.column[1]
            scaled.append(NodeBlock(b.node_id, tuple(x * c for c in b.column), tuple(x * p for p in b.payload)))
        blocks = scaled
    order = draw(st.permutations(range(n)))
    read = [blocks[i] for i in order[: draw(st.integers(kappa + inside, n))]]
    radius = (len(read) - kappa) // 2
    polluted = draw(st.integers(0, min(len(read), radius + 1)))
    for i in range(polluted):
        masks = draw(st.lists(symbol, min_size=t, max_size=t).filter(any))
        b = read[i]
        payload = tuple(FieldElement(p.value ^ x, f) for p, x in zip(b.payload, masks))
        read[i] = NodeBlock(b.node_id, b.column, payload)
    if inside:
        max_polluters = draw(st.integers(0, radius))
    else:
        max_polluters = draw(st.integers(radius + 1, len(read)))
    return obj, draw(st.permutations(read)), polluted, max_polluters


@pytest.mark.parametrize("inside", [True, False], ids=["within-radius", "beyond-radius"])
@settings(max_examples=200, derandomize=True, deadline=None)
@given(data=st.data())
def test_collect_robust_matches_subset_consensus_oracle(inside, data):
    obj, read, polluted, max_polluters = data.draw(polluted_reads(inside))
    got = collect_robust(read, max_polluters)
    want = oracle_collect_robust(read, max_polluters)
    if want is AMBIGUOUS:
        assert got is AMBIGUOUS
    else:
        assert got is not AMBIGUOUS and got.pieces == want.pieces
    if polluted <= max_polluters and len(read) - polluted >= obj.kappa + max_polluters:
        assert got is not AMBIGUOUS and got.pieces == obj.pieces


@st.composite
def unpolluted_reads(draw):
    """Blocks of an object over GF(8) or GF(16) in any order, at least
    kappa of them, on Reed-Solomon columns, on columns scaled by the
    block's point x_i, or on distinct columns of entries 0..2, which are
    often dependent; about a third of the time one payload is altered."""
    f = field(draw(st.sampled_from([3, 4])))
    n = draw(st.integers(2, min(f.order - 1, 8)))
    kappa = draw(st.integers(1, n - 1))
    t = draw(st.integers(1, 3))
    values = draw(st.lists(st.integers(0, f.order - 1), min_size=t * kappa, max_size=t * kappa))
    obj = ObjectMatrix(FieldMatrix(f, t, kappa, values))
    kind = draw(st.sampled_from(["rs", "scaled", "dependent"]))
    if kind == "dependent":
        entries = st.tuples(*[st.integers(0, 2)] * kappa)
        columns = [
            tuple(f.element(v) for v in c)
            for c in draw(st.lists(entries, min_size=kappa, max_size=n, unique=True))
        ]
    else:
        code = RsCode.with_power_points(f, n, kappa, first_power=draw(st.integers(0, 2)))
        columns = [code.column(i) for i in range(n)]
        if kind == "scaled" and kappa > 1:
            columns = [tuple(c[1] * x for x in c) for c in columns]
    blocks = [NodeBlock(i, c, apply_column(obj, c)) for i, c in enumerate(columns, start=1)]
    read = draw(st.permutations(blocks))[: draw(st.integers(kappa, len(blocks)))]
    if draw(st.integers(0, 2)) == 0:
        b = read[0]
        read[0] = NodeBlock(b.node_id, b.column, (b.payload[0] + f.one,) + b.payload[1:])
    return read


@settings(max_examples=300, derandomize=True, deadline=None)
@given(unpolluted_reads())
def test_collect_is_the_unpolluted_read(read):
    # collect answers as the every-subset oracle at e = 0 does, whatever
    # the order of the blocks and whether the first kappa are dependent
    want = oracle_collect_robust(read, 0)
    if want is AMBIGUOUS:
        with pytest.raises(ValueError):
            collect(read)
    else:
        assert collect(read).pieces == want.pieces


class TestCollectRobustColumns:
    def test_scaled_columns_stay_exact(self):
        # columns x_i * (1, x_i, x_i^2) are MDS but not Reed-Solomon
        # columns (1, y, y^2) at the distinct points y = x_i^2, so
        # per-row decoding must not apply; the answer is still the object
        code, obj, blocks = demo_setup(seed=12)
        rng = random.Random(3)
        scaled = []
        for b in blocks:
            x = b.column[1]
            column = tuple(x * c for c in b.column)
            payload = tuple(x * p for p in b.payload)
            scaled.append(NodeBlock(b.node_id, column, payload))
        scaled[4] = corrupt(scaled[4], rng)
        got = collect_robust(scaled, max_polluters=1)
        assert got is not AMBIGUOUS and got.pieces == obj.pieces

    @pytest.mark.parametrize("max_polluters", [0, 1])
    def test_dependent_columns_skipped(self, max_polluters):
        # over GF(16), columns (1,0) and (2,0) are distinct but dependent:
        # that pair determines nothing, the other five pairs the object
        f = field(4)
        obj = ObjectMatrix(FieldMatrix(f, 2, 2, [3, 5, 7, 9]))
        blocks = []
        for node_id, values in enumerate([(1, 0), (0, 1), (2, 0), (1, 1)], start=1):
            column = tuple(f.element(v) for v in values)
            blocks.append(NodeBlock(node_id, column, apply_column(obj, column)))
        assert collect(blocks).pieces == obj.pieces
        got = collect_robust(blocks, max_polluters)
        assert got is not AMBIGUOUS and got.pieces == obj.pieces

    def test_every_subset_solved_past_a_dependent_pool(self):
        # columns (1,0), (2,0), (0,1), (1,1) with node 3 polluted and e = 1:
        # the first kappa + e blocks agree with the object only on the
        # dependent pair, and a wrong object from nodes 1 and 3 disagrees
        # with node 4 alone; every kappa-subset finds both, so AMBIGUOUS
        f = field(4)
        obj = ObjectMatrix(FieldMatrix(f, 2, 2, [3, 5, 7, 9]))
        blocks = []
        for node_id, values in enumerate([(1, 0), (2, 0), (0, 1), (1, 1)], start=1):
            column = tuple(f.element(v) for v in values)
            blocks.append(NodeBlock(node_id, column, apply_column(obj, column)))
        blocks[2] = corrupt(blocks[2], random.Random(2))
        assert collect_robust(blocks, 1) is AMBIGUOUS
        assert oracle_collect_robust(blocks, 1) is AMBIGUOUS

    def test_collect_past_dependent_first_columns(self):
        # over GF(16), columns (1,0) and (2,0) come first and are
        # dependent; with (0,1) the three blocks still fix the object
        f = field(4)
        obj = ObjectMatrix(FieldMatrix(f, 2, 2, [3, 5, 7, 9]))
        blocks = []
        for node_id, values in enumerate([(1, 0), (2, 0), (0, 1)], start=1):
            column = tuple(f.element(v) for v in values)
            blocks.append(NodeBlock(node_id, column, apply_column(obj, column)))
        assert collect(blocks).pieces == obj.pieces
        assert collect(blocks[::-1]).pieces == obj.pieces

    def test_unpolluted_read_solves_once(self, monkeypatch):
        # 8 blocks of (8,3) over GF(16) with scaled, not Reed-Solomon,
        # columns: their first kappa are independent, so an e = 0 read
        # makes one solve, not C(8, 3) = 56
        code = RsCode.with_power_points(field(4), 8, 3, first_power=1)
        obj = ObjectMatrix.random(code.field, 2, 3, random.Random(8))
        blocks = []
        for b in encode_object(obj, code):
            x = b.column[1]
            blocks.append(NodeBlock(b.node_id, tuple(x * c for c in b.column), tuple(x * p for p in b.payload)))
        solves = _count_calls(monkeypatch, "_solve_object")
        for read in (collect, lambda read: collect_robust(read, 0)):
            solves.clear()
            assert read(blocks[::-1]).pieces == obj.pieces
            assert len(solves) == 1


def naive_apply(obj, column):
    """Each object row times the column, by FieldElement arithmetic."""
    f = obj.pieces.field
    out = []
    for r in range(obj.t):
        acc = f.zero
        for x, c in zip(obj.row(r), column):
            acc = acc + x * c
        out.append(acc)
    return tuple(out)


@st.composite
def objects_and_columns(draw):
    """An object over GF(2^m), m = 2..8, with zero entries drawn often, a
    code at arbitrary distinct points, and one more arbitrary column."""
    f = field(draw(st.integers(2, 8)))
    symbol = st.one_of(st.just(0), st.integers(0, f.order - 1))
    n = draw(st.integers(2, min(f.order, 8)))
    kappa = draw(st.integers(1, n - 1))
    t = draw(st.integers(1, 3))
    points = draw(st.lists(st.integers(0, f.order - 1), min_size=n, max_size=n, unique=True))
    code = RsCode(f, n, kappa, tuple(f.element(p) for p in points))
    values = draw(st.lists(symbol, min_size=t * kappa, max_size=t * kappa))
    column = tuple(f.element(v) for v in draw(st.lists(symbol, min_size=kappa, max_size=kappa)))
    return ObjectMatrix(FieldMatrix(f, t, kappa, values)), code, column


@settings(max_examples=200, derandomize=True, deadline=None)
@given(objects_and_columns())
def test_kernel_paths_match_naive_products(case):
    obj, code, column = case
    f = code.field
    want = naive_apply(obj, column)
    col = [c.value for c in column]
    # collect_robust's candidate check: one gf.dot per object row
    assert tuple(dot(f, row, col) for row in obj.pieces.int_rows()) == tuple(w.value for w in want)
    blocks = encode_object(obj, code)
    assert [b.node_id for b in blocks] == list(range(1, code.n + 1))
    for pos, b in enumerate(blocks):
        assert b.column == code.column(pos)
        assert b.payload == naive_apply(obj, b.column)


def test_string_behaviors_act_like_enums():
    code, obj, blocks = demo_setup(seed=23)
    table = FragmentDigestTable.from_blocks("obj", blocks)
    for as_enum in ({1: Behavior.POLLUTING}, {6: Behavior.SELFISH}, {7: Behavior.POLLUTING}):
        as_str = {i: b.value for i, b in as_enum.items()}
        runs = [
            lambda bs: collaborative_repair(code, blocks[:5], [6, 7], bs, seed=4),
            lambda bs: progressive_repair_with_digests(code, blocks[:5], [6, 7], bs, table, seed=4),
        ]
        for run in runs:
            new_enum, report_enum = run(as_enum)
            new_str, report_str = run(as_str)
            assert new_str == new_enum and report_str == report_enum


@pytest.mark.parametrize(
    "behaviors",
    [None, {1: "selfish"}, {6: "selfish", 2: "honest"}, {i: "honest" for i in range(1, 8)}],
)
def test_seed_matters_only_when_a_node_pollutes(behaviors):
    # only polluting nodes draw wrong symbols from the repair's RNG, so
    # without one the seed changes neither the blocks nor the report; and
    # an id mapped to "honest" repairs as an id left out of the map
    code, obj, blocks = demo_setup(seed=89)
    table = FragmentDigestTable.from_blocks("obj", blocks)
    runs = [
        lambda bs, seed: collaborative_repair(code, blocks[:5], [6, 7], bs, seed=seed),
        lambda bs, seed: progressive_repair_with_digests(
            code, blocks[:5], [6, 7], bs, table, seed=seed
        ),
    ]
    misbehaving = {i: b for i, b in (behaviors or {}).items() if b != "honest"}
    for run in runs:
        assert run(behaviors, 1) == run(behaviors, 2) == run(misbehaving, 1)


class TestHonestRepair:
    def test_demo_repair_costs_and_exactness(self):
        code, obj, blocks = demo_setup(seed=9)
        live = blocks[:5]
        lost = {b.node_id: b for b in blocks[5:]}
        new, report = collaborative_repair(code, live, [6, 7])
        for nb in new:
            assert nb.payload == lost[nb.node_id].payload
        # eight pieces move to replenish four lost pieces
        assert report.total_pieces == 8
        assert report.beta_av == F(1, 2)
        assert report.beta_prime == F(1, 2)
        assert report.gamma == 2
        assert report.effective_d == 3

    def test_exact_repair_all_failure_pairs(self):
        code, obj, blocks = demo_setup(seed=21)
        by_id = {b.node_id: b for b in blocks}
        for failed in combinations(range(1, 8), 2):
            live = [b for b in blocks if b.node_id not in failed]
            new, report = collaborative_repair(code, live, list(failed))
            for nb in new:
                assert nb.payload == by_id[nb.node_id].payload
            assert report.gamma * report.unit_pieces == 4  # kappa + (t-1) pieces per node

    @settings(max_examples=20, deadline=None, derandomize=True)
    @given(st.integers(0, 10_000), st.data())
    def test_exact_repair_wider_field(self, seed, data):
        f16 = field(4)
        code = RsCode.with_power_points(f16, 10, 4, first_power=1)
        rng = random.Random(seed)
        obj = ObjectMatrix.random(f16, 3, 4, rng)
        blocks = encode_object(obj, code)
        failed = sorted(data.draw(st.permutations(range(1, 11)))[:3])
        live = [b for b in blocks if b.node_id not in failed]
        by_id = {b.node_id: b for b in blocks}
        new, report = collaborative_repair(code, live, failed)
        for nb in new:
            assert nb.payload == by_id[nb.node_id].payload
        assert report.gamma * report.unit_pieces == 4 + 2  # kappa + (t-1)

    def test_too_few_live_nodes(self):
        code, obj, blocks = demo_setup()
        with pytest.raises(RepairFailureError):
            collaborative_repair(code, blocks[:2], [3, 4])


class TestSelfishScenarios:
    def test_selfish_newcomer_forces_full_downloads(self):
        code, obj, blocks = demo_setup(seed=13)
        by_id = {b.node_id: b for b in blocks}
        new, report = collaborative_repair(
            code, blocks[:5], [6, 7], {6: Behavior.SELFISH}
        )
        for nb in new:  # the selfish node still stores correct data
            assert nb.payload == by_id[nb.node_id].payload
        assert report.measured == (7,)
        assert report.beta_av == 1
        assert report.beta_prime == 0
        assert report.gamma == 3

    def test_selfish_newcomer_walks_past_selfish_contacts(self):
        # nobody relays for a repair without collaboration, so each newcomer
        # walks its stripe until kappa contacts have answered
        code, obj, blocks = demo_setup(seed=13)
        by_id = {b.node_id: b for b in blocks}
        new, report = collaborative_repair(
            code, blocks[:5], [6, 7], {6: Behavior.SELFISH, 1: Behavior.SELFISH}
        )
        for nb in new:
            assert nb.payload == by_id[nb.node_id].payload
        assert report.contacted == {6: (1, 2, 3, 4), 7: (4, 5, 1, 2)}
        for f in (6, 7):
            assert report.downloads[f] == {i: 2 for i in report.contacted[f] if i != 1}
        assert report.beta_av == 1
        assert report.beta_prime == 0
        assert report.gamma == 3
        assert report.effective_d == 4

    def test_selfish_newcomer_without_kappa_responsive_nodes(self):
        code, obj, blocks = demo_setup(seed=13)
        bad = {6: Behavior.SELFISH, 1: Behavior.SELFISH, 2: Behavior.SELFISH, 3: Behavior.SELFISH}
        with pytest.raises(RepairFailureError, match="a full reconstruction needs more"):
            collaborative_repair(code, blocks[:5], [6, 7], bad)

    def test_selfish_live_node_rebalances_demand(self):
        code, obj, blocks = demo_setup(seed=17)
        by_id = {b.node_id: b for b in blocks}
        # node 1 is in both newcomers' contact stripes
        new, report = collaborative_repair(
            code, blocks[:5], [6, 7], {1: Behavior.SELFISH}
        )
        for nb in new:
            assert nb.payload == by_id[nb.node_id].payload
        assert report.beta_av == F(3, 4)
        assert report.beta_prime == F(1, 2)
        assert report.gamma == 2
        assert report.effective_d == 3
        # per-link loads are uneven: 2 pieces on one link, 1 on the other
        loads = sorted(report.downloads[6].values())
        assert loads == [1, 2]
        # completing both stored pieces takes one extra cross piece per pair,
        # outside the reference accounting
        assert sum(report.completion.values()) == 2
        assert report.total_pieces == 10

    def test_contact_new_nodes_policy(self):
        code, obj, blocks = demo_setup(seed=19)
        by_id = {b.node_id: b for b in blocks}
        new, report = collaborative_repair(
            code,
            blocks[:5],
            [6, 7],
            {1: Behavior.SELFISH},
            policy=RepairPolicy.CONTACT_NEW_NODES,
        )
        for nb in new:
            assert nb.payload == by_id[nb.node_id].payload
        assert report.beta_av == F(1, 2)  # one piece per responsive link
        assert sum(report.completion.values()) == 0

    def test_contact_new_nodes_fails_short_of_kappa_responders(self):
        code, obj, blocks = demo_setup()
        bad = {1: Behavior.SELFISH, 2: Behavior.SELFISH, 3: Behavior.SELFISH}
        with pytest.raises(RepairFailureError, match="not enough responsive live nodes"):
            collaborative_repair(
                code, blocks[:5], [6, 7], bad, policy=RepairPolicy.CONTACT_NEW_NODES
            )

    def test_keep_policy_fails_when_responders_cannot_span(self):
        code, obj, blocks = demo_setup(seed=23)
        bad = {1: Behavior.SELFISH, 2: Behavior.SELFISH, 4: Behavior.SELFISH}
        with pytest.raises(RepairFailureError):
            collaborative_repair(code, blocks[:5], [6, 7], bad)


class TestPollutingScenarios:
    def test_polluting_newcomer_like_selfish_plus_bad_storage(self):
        code, obj, blocks = demo_setup(seed=29)
        by_id = {b.node_id: b for b in blocks}
        new, report = collaborative_repair(
            code, blocks[:5], [6, 7], {6: Behavior.POLLUTING}
        )
        stored = {nb.node_id: nb for nb in new}
        assert stored[7].payload == by_id[7].payload
        assert stored[6].payload != by_id[6].payload  # garbage on the polluter
        assert report.measured == (7,)
        assert (report.beta_av, report.beta_prime, report.gamma) == (1, 0, 3)

    def test_polluting_live_node_escalates_contacts(self):
        code, obj, blocks = demo_setup(seed=31)
        by_id = {b.node_id: b for b in blocks}
        new, report = collaborative_repair(
            code, blocks[:5], [6, 7], {1: Behavior.POLLUTING}
        )
        for nb in new:
            assert nb.payload == by_id[nb.node_id].payload
        assert report.effective_d == 5
        assert report.beta_av == F(1, 2)
        assert report.beta_prime == F(1, 2)
        assert report.gamma == 3

    def test_trusting_repair_absorbs_pollution(self):
        # with escalation disabled the wrong equation is accepted silently
        code, obj, blocks = demo_setup(seed=37)
        by_id = {b.node_id: b for b in blocks}
        new, report = collaborative_repair(
            code, blocks[:5], [6, 7], {1: Behavior.POLLUTING}, assumed_polluters=0
        )
        assert any(nb.payload != by_id[nb.node_id].payload for nb in new)
        assert report.gamma == 2  # cost profile of an honest repair

    @pytest.mark.parametrize("assumed", [-1, 1.5, True, "1"])
    def test_assumed_polluters_must_be_a_nonnegative_int(self, assumed):
        # -1 would lower the contact target to kappa - 2: two wrong blocks
        code, obj, blocks = demo_setup()
        with pytest.raises(ValueError, match="assumed_polluters must be a nonnegative integer"):
            collaborative_repair(
                code, blocks[:5], [6, 7], {1: Behavior.POLLUTING}, assumed_polluters=assumed
            )

    def test_two_polluters_defeat_unassisted_repair(self):
        # Beyond the correction radius the repair either flags failure or
        # settles on wrong rows; it can never return the true blocks, since
        # those disagree with both polluted equations.
        bad = {1: Behavior.POLLUTING, 2: Behavior.POLLUTING}
        failures = 0
        for seed in range(6):
            code, obj, blocks = demo_setup(seed=seed)
            by_id = {b.node_id: b for b in blocks}
            try:
                new, _ = collaborative_repair(code, blocks[:5], [6, 7], bad, seed=seed)
            except RepairFailureError:
                failures += 1
                continue
            assert any(nb.payload != by_id[nb.node_id].payload for nb in new)
        assert failures > 0


class TestDigests:
    def test_serialization_is_canonical(self):
        _, _, blocks = demo_setup(seed=43)
        b = blocks[0]
        raw = b.to_bytes()
        # m, node id, kappa, t, then t payload symbols, 1 byte each for m=3
        assert raw[:4] == bytes([3, 1, 3, 2])
        assert list(raw[4:]) == [p.value for p in b.payload]
        assert len(raw) == 6

    def test_full_length_code_with_point_zero(self):
        # node 256 of a (256,3) code over GF(2^8) needs a 2-byte node id
        f = field(8)
        code = RsCode(f, 256, 3, tuple(f.elements()))
        obj = ObjectMatrix.random(f, 2, 3, random.Random(4))
        blocks = encode_object(obj, code)
        table = FragmentDigestTable.from_blocks("obj", blocks)
        assert len(set(table.digests.values())) == 256
        assert all(table.verify(b) for b in blocks)
        raw = blocks[-1].to_bytes()
        assert raw[:6] == bytes([8, 0, 1, 3, 2]) + bytes([blocks[-1].payload[0].value])
        assert len(raw) == 7

    @pytest.mark.parametrize("m", [4, 8, 9])
    def test_kappa_and_t_must_fit_a_symbol(self, m):
        # a block over GF(2^m) writes kappa and t in ceil(m/8) bytes
        f = field(m)
        width = (m + 7) // 8
        most = 256**width - 1
        column, payload = (f.one,) * 3, (f.zero,) * most
        raw = NodeBlock(1, column, payload).to_bytes()
        at = width + (m + 8) // 8  # after m and the node id
        assert raw[at:at + 2 * width] == (3).to_bytes(width, "little") + most.to_bytes(width, "little")
        for kappa, t in ((3, most + 1), (most + 1, 2)):
            block = NodeBlock(1, (f.one,) * kappa, (f.zero,) * t)
            with pytest.raises(ValueError, match=f"kappa={kappa} and t={t} must fit"):
                block.to_bytes()

    def test_digest_verifies_only_exact_payload(self):
        _, _, blocks = demo_setup(seed=47)
        table = FragmentDigestTable.from_blocks("obj", blocks)
        rng = random.Random(5)
        assert all(table.verify(b) for b in blocks)
        assert not table.verify(corrupt(blocks[0], rng))

    def test_honest_fast_path_uses_kappa_contacts(self):
        code, obj, blocks = demo_setup(seed=53)
        table = FragmentDigestTable.from_blocks("obj", blocks)
        by_id = {b.node_id: b for b in blocks}
        new, report = progressive_repair_with_digests(
            code, blocks[:5], [6, 7], {}, table
        )
        for nb in new:
            assert nb.payload == by_id[nb.node_id].payload
        assert report.effective_d == 3
        assert report.gamma == 2

    def test_one_polluter_verified_within_four_contacts(self):
        code, obj, blocks = demo_setup(seed=59)
        table = FragmentDigestTable.from_blocks("obj", blocks)
        by_id = {b.node_id: b for b in blocks}
        new, report = progressive_repair_with_digests(
            code, blocks[:5], [6, 7], {1: Behavior.POLLUTING}, table
        )
        for nb in new:
            assert nb.payload == by_id[nb.node_id].payload
        assert report.effective_d <= 4

    def test_two_polluters_verified_with_all_five(self):
        code, obj, blocks = demo_setup(seed=61)
        table = FragmentDigestTable.from_blocks("obj", blocks)
        by_id = {b.node_id: b for b in blocks}
        bad = {1: Behavior.POLLUTING, 2: Behavior.POLLUTING}
        new, report = progressive_repair_with_digests(
            code, blocks[:5], [6, 7], bad, table
        )
        for nb in new:
            assert nb.payload == by_id[nb.node_id].payload
        assert report.effective_d == 5

    def test_three_polluters_exhaust_the_live_set(self):
        code, obj, blocks = demo_setup(seed=67)
        table = FragmentDigestTable.from_blocks("obj", blocks)
        bad = {i: Behavior.POLLUTING for i in (1, 2, 3)}
        with pytest.raises(RepairFailureError):
            progressive_repair_with_digests(code, blocks[:5], [6, 7], bad, table)

    def test_digest_table_must_cover_failed_nodes(self):
        code, obj, blocks = demo_setup(seed=71)
        table = FragmentDigestTable.from_blocks("obj", blocks[:5])
        with pytest.raises(ValueError):
            progressive_repair_with_digests(code, blocks[:5], [6, 7], {}, table)

    def test_duplicate_live_ids_rejected(self):
        code, obj, blocks = demo_setup(seed=73)
        table = FragmentDigestTable.from_blocks("obj", blocks)
        live = [blocks[0], *blocks[:5]]
        with pytest.raises(ValueError, match="duplicate"):
            progressive_repair_with_digests(code, live, [6, 7], {}, table)

    def test_duplicate_failed_ids_rejected(self):
        code, obj, blocks = demo_setup(seed=83)
        table = FragmentDigestTable.from_blocks("obj", blocks)
        with pytest.raises(ValueError, match="duplicate"):
            progressive_repair_with_digests(code, blocks[:5], [6, 6], {}, table)
        with pytest.raises(ValueError, match="duplicate"):
            collaborative_repair(code, blocks[:5], [6, 6])

    def test_failed_ids_overlapping_live_nodes_rejected(self):
        code, obj, blocks = demo_setup(seed=79)
        table = FragmentDigestTable.from_blocks("obj", blocks)
        with pytest.raises(ValueError, match="overlap"):
            progressive_repair_with_digests(code, blocks[:5], [5, 6], {}, table)


@pytest.mark.parametrize("digests", [False, True], ids=["collaborative", "digests"])
def test_repair_checks_live_payloads(digests):
    code, _, blocks = demo_setup()
    table = FragmentDigestTable.from_blocks("demo", blocks)

    def repair(code, live):
        if digests:
            return progressive_repair_with_digests(code, live, [1, 2], None, table)
        return collaborative_repair(code, live, [1, 2])

    live = blocks[2:]
    b, gf16 = live[1], field(4)
    # GF(16) symbols among GF(8) blocks: values below 8 once went
    # through, a 15 ended in IndexError
    for values in ([p.value for p in b.payload], [15, b.payload[1].value]):
        wide = NodeBlock(b.node_id, b.column, tuple(FieldElement(v, gf16) for v in values))
        with pytest.raises(FieldMismatchError):
            repair(code, [live[0], wide, *live[2:]])
    with pytest.raises(FieldMismatchError):  # GF(8) blocks for a GF(16) code
        repair(RsCode.with_power_points(gf16, 7, 3, first_power=1), live)
    short = NodeBlock(b.node_id, b.column, b.payload[:1])
    with pytest.raises(ValueError, match="live blocks hold 2 and 1 pieces"):
        repair(code, [live[0], short, *live[2:]])


@st.composite
def codes_with_zero(draw):
    """An RS code over GF(2^m), m = 2..8, at distinct points with 0 among
    them, and an object for it, zero entries drawn often: (code, obj)."""
    f = field(draw(st.integers(2, 8)))
    n = draw(st.integers(2, min(f.order, 8)))
    kappa = draw(st.integers(1, n - 1))
    t = draw(st.integers(1, 3))
    points = draw(st.lists(st.integers(1, f.order - 1), min_size=n - 1, max_size=n - 1, unique=True))
    points.insert(draw(st.integers(0, n - 1)), 0)
    code = RsCode(f, n, kappa, tuple(f.element(p) for p in points))
    symbol = st.one_of(st.just(0), st.integers(0, f.order - 1))
    values = draw(st.lists(symbol, min_size=t * kappa, max_size=t * kappa))
    return code, ObjectMatrix(FieldMatrix(f, t, kappa, values))


@settings(max_examples=300, derandomize=True, deadline=None)
@given(codes_with_zero(), st.data())
def test_collect_matches_gauss_jordan(case, data):
    # on RS columns collect interpolates; a column (1, x, ..., x^(kappa-1) + 1)
    # is not one, so the blocks must then be solved
    code, obj = case
    blocks = data.draw(st.permutations(encode_object(obj, code)))[: code.kappa]
    if code.kappa >= 3 and data.draw(st.booleans()):
        b = blocks[0]
        column = b.column[:-1] + (b.column[-1] + code.field.one,)
        blocks[0] = NodeBlock(b.node_id, column, apply_column(obj, column))
    try:
        solved = _solve_subset([b.column for b in blocks], [b.payload for b in blocks])
    except SingularMatrixError:
        with pytest.raises(ValueError, match="no unique object agrees with every block"):
            collect(blocks)
        return
    assert collect(blocks).pieces == solved.transpose() == obj.pieces


def test_collect_rejects_blocks_made_singular_by_a_modified_column():
    # the singular branch of test_collect_matches_gauss_jordan, pinned: over
    # GF(4) at points 0, w, w^2, adding 1 to the last entry of the column
    # at 0 puts it in the span of the other two, as (0 + w)(0 + w^2) = 1
    f = field(2)
    code = RsCode(f, 4, 3, tuple(f.element(p) for p in (0, 2, 3, 1)))
    obj = ObjectMatrix(FieldMatrix(f, 2, 3, [1, 2, 3, 0, 1, 2]))
    blocks = encode_object(obj, code)[:3]
    b = blocks[0]
    column = b.column[:-1] + (b.column[-1] + f.one,)
    blocks[0] = NodeBlock(b.node_id, column, apply_column(obj, column))
    with pytest.raises(SingularMatrixError):
        _solve_subset([b.column for b in blocks], [b.payload for b in blocks])
    with pytest.raises(ValueError, match="no unique object agrees with every block"):
        collect(blocks)


@settings(max_examples=300, derandomize=True, deadline=None)
@given(codes_with_zero(), st.data())
def test_rows_at_matches_decode_then_eval(case, data):
    # with some received symbols wrong, the values at the targets are
    # those of rs_decode's row, so pollution spreads exactly as it did
    code, obj = case
    f, kappa = code.field, code.kappa
    order = data.draw(st.permutations(range(code.n)))
    positions = order[: data.draw(st.integers(kappa, code.n))]
    blocks = encode_object(obj, code)
    rows = []
    for r in range(obj.t):
        row = []
        for p in positions:
            mask = data.draw(st.one_of(st.just(0), st.integers(1, f.order - 1)))
            row.append(blocks[p].payload[r].value ^ mask)
        rows.append(row)
    zero = code.evaluation_points.index(f.zero)
    targets = data.draw(st.lists(st.integers(0, code.n - 1), min_size=1, max_size=4)) + [zero]
    xs = [code.point_values[p] for p in targets]
    want = []
    for row in rows:
        try:
            msg = [v.value for v in rs_decode(code, zip(positions, map(f.element, row)))]
        except DecodeError:
            # the message that simulate prints on stderr
            text = (
                f"row decoding failed: no codeword within n_s + 2*n_b <= {code.n - kappa}"
                f" (n_s={code.n - len(positions)})"
            )
            with pytest.raises(RepairFailureError) as failure:
                _rows_at(code, positions, rows, xs)
            assert str(failure.value) == text
            return
        want.append([dot(f, msg, code.column_values[p]) for p in targets])
    assert _rows_at(code, positions, rows, xs) == want


def pinned_system():
    """A (10,4) code over GF(16) and the blocks of a t = 3 object."""
    code = RsCode.with_power_points(field(4), 10, 4, 1)
    return code, encode_object(ObjectMatrix.random(code.field, 3, 4, random.Random(11)), code)


def pinned_repair(name):
    """One repair of the pinned system with nodes 8-10 failed, chosen so
    that together the four reach every branch of the three repair paths."""
    code, blocks = pinned_system()
    live, failed = blocks[:7], [8, 9, 10]
    if name == "relay":  # two selfish live nodes under keep-responders
        return collaborative_repair(code, live, failed, {1: "selfish", 5: "selfish"}, seed=5)
    if name == "vote":
        bad = {2: "polluting"}
        return collaborative_repair(code, live, failed, bad, assumed_polluters=1, seed=5)
    if name == "byzantine_newcomer":
        bad = {3: "selfish", 9: "polluting"}
        policy = RepairPolicy.CONTACT_NEW_NODES
        return collaborative_repair(code, live, failed, bad, policy=policy, seed=5)
    # four contacts give three equations, five a polluted subset, six a verified one
    digests = FragmentDigestTable.from_blocks("pinned", blocks)
    bad = {2: "polluting", 3: "selfish", 9: "selfish"}
    return progressive_repair_with_digests(code, live, failed, bad, digests, seed=5)


# Recorded before the repair paths dropped their parallel bookkeeping
# (link loads, relay list, position-set intersection); every ledger is
# listed in key order, which the cost summaries do not see.
PINNED_REPAIRS = {
    "relay": {
        "blocks": [(8, [11, 4, 10]), (9, [5, 5, 0]), (10, [6, 0, 13])],
        "downloads": [
            (8, [(2, 2), (3, 2), (4, 1)]),
            (9, [(6, 2), (7, 2)]),
            (10, [(2, 1), (3, 1), (4, 1)]),
        ],
        "exchanges": [((9, 8), 1), ((8, 9), 2), ((9, 10), 1)],
        "completion": [
            ((8, 9), 1), ((8, 10), 1), ((9, 8), 1), ((9, 10), 1), ((10, 8), 1), ((10, 9), 1)
        ],
        "contacted": [(8, (1, 2, 3, 4)), (9, (5, 6, 7, 1)), (10, (2, 3, 4, 5))],
        "measured": (8, 9, 10),
    },
    "vote": {
        "blocks": [(8, [11, 4, 10]), (9, [5, 5, 0]), (10, [6, 0, 13])],
        "downloads": [
            (8, [(1, 1), (2, 1), (3, 1), (4, 1), (5, 1), (6, 1)]),
            (9, [(5, 1), (6, 1), (7, 1), (1, 1), (2, 1), (3, 1)]),
            (10, [(2, 1), (3, 1), (4, 1), (5, 1), (6, 1), (7, 1)]),
        ],
        "exchanges": [
            ((8, 9), 1), ((8, 10), 1), ((9, 8), 1), ((9, 10), 1), ((10, 8), 1), ((10, 9), 1)
        ],
        "completion": [],
        "contacted": [(8, (1, 2, 3, 4, 5, 6)), (9, (5, 6, 7, 1, 2, 3)), (10, (2, 3, 4, 5, 6, 7))],
        "measured": (8, 9, 10),
    },
    "byzantine_newcomer": {
        "blocks": [(8, [11, 4, 10]), (9, [15, 0, 12]), (10, [6, 0, 13])],
        "downloads": [
            (8, [(1, 3), (2, 3), (4, 3), (5, 3)]),
            (9, [(5, 3), (6, 3), (7, 3), (1, 3)]),
            (10, [(2, 3), (4, 3), (5, 3), (6, 3)]),
        ],
        "exchanges": [],
        "completion": [],
        "contacted": [(8, (1, 2, 3, 4, 5)), (9, (5, 6, 7, 1)), (10, (2, 3, 4, 5, 6))],
        "measured": (8, 10),
    },
    "digests": {
        "blocks": [(8, [11, 4, 10]), (9, [5, 5, 0]), (10, [6, 0, 13])],
        "downloads": [
            (8, [(1, 2), (2, 2), (4, 2), (5, 2), (6, 2)]),
            (9, [(1, 3), (2, 3), (4, 3), (5, 3), (6, 3)]),
            (10, [(1, 2), (2, 2), (4, 2), (5, 2), (6, 2)]),
        ],
        "exchanges": [((8, 10), 5), ((10, 8), 5)],
        "completion": [],
        "contacted": [(f, (1, 2, 3, 4, 5, 6)) for f in (8, 9, 10)],
        "measured": (8, 10),
    },
}


@pytest.mark.parametrize("name", sorted(PINNED_REPAIRS))
def test_repair_ledgers_are_pinned(name):
    blocks, report = pinned_repair(name)
    assert {
        "blocks": [(b.node_id, [p.value for p in b.payload]) for b in blocks],
        "downloads": [(f, list(d.items())) for f, d in report.downloads.items()],
        "exchanges": list(report.exchanges.items()),
        "completion": list(report.completion.items()),
        "contacted": list(report.contacted.items()),
        "measured": report.measured,
    } == PINNED_REPAIRS[name]


@st.composite
def report_ledgers(draw):
    """A RepairReport with random ledgers among newcomers 8-11 and live
    nodes 1-4 (zero loads included), and t = 1..4."""
    newcomers = draw(st.lists(st.sampled_from([8, 9, 10, 11]), unique=True, max_size=4))
    pieces = st.integers(0, 5)
    downloads = {
        f: Counter(draw(st.dictionaries(st.integers(1, 4), pieces, max_size=4))) for f in newcomers
    }
    pairs = st.sampled_from([(a, b) for a in newcomers for b in newcomers if a != b] or [(8, 9)])
    return RepairReport(
        unit_pieces=draw(st.integers(1, 4)),
        downloads=downloads,
        exchanges=Counter(draw(st.dictionaries(pairs, pieces, max_size=6))),
        measured=tuple(draw(st.permutations(newcomers))[: draw(st.integers(0, len(newcomers)))]),
    )


@settings(max_examples=300, derandomize=True, deadline=None)
@given(report_ledgers())
def test_cost_ratios_match_fraction_formulas(report):
    # the costs as Fractions, summed straight from the ledgers; the int
    # pairs must give them exactly and their floats to the last bit
    m, inside, t = len(report.measured), set(report.measured), report.unit_pieces
    loads = [v for f in report.measured for v in report.downloads.get(f, {}).values() if v > 0]
    pair_pieces = sum(v for (a, b), v in report.exchanges.items() if a in inside and b in inside)
    received = sum(v for (_, b), v in report.exchanges.items() if b in inside)
    downloaded = sum(sum(report.downloads.get(f, {}).values()) for f in report.measured)
    want = (
        F(sum(loads), len(loads) * t) if loads else F(0),
        F(pair_pieces, m * (m - 1) * t) if m >= 2 else F(0),
        F(downloaded + received, m * t) if m else F(0),
    )
    ratios = report.cost_ratios()
    assert tuple(F(num, den) for num, den in ratios) == want
    assert [num / den for num, den in ratios] == [float(w) for w in want]
    assert (report.beta_av, report.beta_prime, report.gamma) == want


@pytest.mark.parametrize("relabel, failed", [(0, [8, 9, 10]), (11, [8, 9, 10]), (None, [0, 9, 10])])
def test_node_ids_outside_the_code_rejected(relabel, failed):
    # a repair uses node_id - 1 as the codeword position: a live node 0
    # would wrap around to the last point, and a failed node 0 get node
    # 10's block
    code, blocks = pinned_system()
    live = blocks[:7]
    if relabel is not None:
        live[0] = NodeBlock(relabel, live[0].column, live[0].payload)
    table = FragmentDigestTable.from_blocks("obj", blocks)
    with pytest.raises(ValueError, match=r"outside 1\.\.10"):
        collaborative_repair(code, live, failed)
    with pytest.raises(ValueError, match=r"outside 1\.\.10"):
        progressive_repair_with_digests(code, live, failed, {}, table)


def test_string_policies_act_like_enums():
    # the relay repair moves completion pieces only under keep-responders
    code, blocks = pinned_system()
    selfish = {1: "selfish", 5: "selfish"}

    def run(policy):
        return collaborative_repair(code, blocks[:7], [8, 9, 10], selfish, policy=policy, seed=5)

    for policy in RepairPolicy:
        assert run(policy.value) == run(policy)
    assert sum(run("keep-responders")[1].completion.values()) == 6
    with pytest.raises(ValueError):
        collaborative_repair(code, blocks[:7], [8, 9, 10], selfish, policy="keep-everyone")


@pytest.mark.parametrize("entry", ["collaborative", "digests"])
def test_node_ids_must_be_ints(entry):
    # int() once made node ids of the failed ids ([6.9, 7.2] repaired
    # nodes 6 and 7, [True, 7] node 1, ["6", 7] nodes 6 and 7), and a live
    # node "5" among int ids ended in the TypeError of the id sort
    code, obj, blocks = demo_setup()
    table = FragmentDigestTable.from_blocks("obj", blocks)

    def run(live, failed):
        if entry == "collaborative":
            return collaborative_repair(code, live, failed, {1: "polluting"})
        return progressive_repair_with_digests(code, live, failed, {1: "polluting"}, table)

    b = blocks[4]
    for live, failed, named in [
        (blocks[:5], [6.9, 7.2], r"\[6\.9, 7\.2\]"),
        (blocks[1:6], [True, 7], r"\[True\]"),
        (blocks[:5], ["6", 7], r"\['6'\]"),
        ([*blocks[:4], NodeBlock(5.0, b.column, b.payload)], [6, 7], r"\[5\.0\]"),
        ([*blocks[:4], NodeBlock("5", b.column, b.payload)], [6, 7], r"\['5'\]"),
    ]:
        with pytest.raises(ValueError, match=named + " are not ints"):
            run(live, failed)
    run(blocks[:5], (7, 6))


@pytest.mark.parametrize("entry", ["collaborative", "digests"])
def test_repairs_reject_blocks_without_payload(entry):
    # blocks with no payload symbol make t = 0, which only an empty
    # failed list matched: like a read, a repair rejects such blocks
    code, obj, blocks = demo_setup()
    table = FragmentDigestTable.from_blocks("obj", blocks)
    empty = [NodeBlock(b.node_id, b.column, ()) for b in blocks[:5]]
    for failed in ([], [6, 7]):
        with pytest.raises(ValueError, match="live blocks hold no payload symbol"):
            if entry == "collaborative":
                collaborative_repair(code, empty, failed, {1: "polluting"})
            else:
                progressive_repair_with_digests(code, empty, failed, {1: "polluting"}, table)


@pytest.mark.parametrize("entry", ["collaborative", "digests"])
def test_stray_behavior_keys_rejected(entry):
    # a key that is no node id of the code names no node, and a repair
    # that ignored it would run as if the node it meant were honest
    code, obj, blocks = demo_setup()
    table = FragmentDigestTable.from_blocks("obj", blocks)

    def run(behaviors):
        if entry == "collaborative":
            return collaborative_repair(code, blocks[:5], [6, 7], behaviors)
        return progressive_repair_with_digests(code, blocks[:5], [6, 7], behaviors, table)

    for bad, named in [
        ({"1": "selfish"}, r"\['1'\]"),
        ({99: "polluting"}, r"\[99\]"),
        ({2: "selfish", 0: "selfish", True: "polluting"}, r"\[0, True\]"),
    ]:
        with pytest.raises(ValueError, match=named + r" are not node ids in 1\.\.7"):
            run(bad)
    run({1: "selfish"})


@st.composite
def contact_cases(draw):
    """Id-sorted live blocks (only their ids matter), kappa, every live
    node's behavior, a policy, an assumed polluter count and a newcomer
    count."""
    ids = sorted(draw(st.sets(st.integers(1, 16), min_size=1, max_size=10)))
    live = [NodeBlock(i, (), ()) for i in ids]
    kappa = draw(st.integers(1, len(ids)))
    roles = {i: draw(st.sampled_from(list(Behavior))) for i in ids}
    policy = draw(st.sampled_from(list(RepairPolicy)))
    return live, kappa, roles, policy, draw(st.integers(0, 2)), draw(st.integers(1, 5))


@settings(max_examples=400, derandomize=True, deadline=None)
@given(case=contact_cases())
def test_contacts_match_two_branch_oracle(case):
    live, kappa, roles, policy, assumed, newcomers = case
    sparse = {i: b for i, b in roles.items() if b is not Behavior.HONEST}
    # the responder target collaborative_repair passes on its collaborative path
    need = kappa
    if assumed:
        need = min(kappa + 2 * assumed, sum(b is not Behavior.SELFISH for b in roles.values()))
    elif policy is RepairPolicy.KEEP_RESPONDERS:
        need = 0
    for j in range(newcomers):
        got = _contacts(live, j, kappa, roles, need)
        want = oracle_contacts(live, j, kappa, sparse, policy, assumed)
        assert [[b.node_id for b in side] for side in got] == [
            [b.node_id for b in side] for side in want
        ]


@st.composite
def repair_cases(draw):
    """A small code over GF(2^m), m = 3..8, n <= 20, an object of t rows,
    its blocks but t failed ones in a drawn order, the behaviors of one to
    three live nodes and maybe of a newcomer, the repair's options and seed."""
    f = field(draw(st.integers(3, 8)))
    n = draw(st.integers(2, min(20, f.order - 1)))
    kappa = draw(st.integers(1, min(n - 1, 6)))
    t = draw(st.sampled_from(range(1, min(n - kappa, 4) + 1)))
    code = RsCode.with_power_points(f, n, kappa, first_power=draw(st.integers(0, 1)))
    blocks = encode_object(ObjectMatrix.random(f, t, kappa, random.Random(draw(st.integers()))), code)
    failed = draw(st.lists(st.integers(1, n), min_size=t, max_size=t, unique=True))
    live = draw(st.permutations([b for b in blocks if b.node_id not in failed]))
    kinds = st.sampled_from([Behavior.SELFISH, Behavior.POLLUTING, Behavior.HONEST])
    # live nodes, mostly among those that open the first two contact stripes
    ids = sorted(b.node_id for b in live)
    suspects = st.sampled_from(ids[: 2 * kappa]) | st.sampled_from(ids)
    behaviors = dict(draw(st.lists(st.tuples(suspects, kinds), min_size=1, max_size=3)))
    if draw(st.booleans()):
        behaviors[draw(st.sampled_from(failed))] = draw(kinds)
    options = {"seed": draw(st.integers(0, 2**32 - 1))}
    digests = None
    if draw(st.booleans()):
        digests = FragmentDigestTable.from_blocks("obj", blocks)
    else:
        options["policy"] = draw(st.sampled_from(list(RepairPolicy)))
        options["assumed_polluters"] = draw(st.none() | st.integers(0, 2))
    return code, live, failed, behaviors, digests, options


def repair_outcome(repair, *args, **options):
    """(blocks, every ledger as its item list in key order, contacts), or
    the RepairFailureError class."""
    try:
        blocks, report = repair(*args, **options)
    except RepairFailureError:
        return RepairFailureError
    return (
        blocks,
        report.unit_pieces,
        report.measured,
        [(f, list(ledger.items())) for f, ledger in report.downloads.items()],
        list(report.exchanges.items()),
        list(report.completion.items()),
        list(report.contacted.items()),
    )


@settings(max_examples=200, derandomize=True, deadline=None)
@given(case=repair_cases())
def test_repairs_match_plain_reference(case):
    # the blocks, each ledger in key order and the contacts of both repairs
    # equal those of a reference that solves every row with rs_decode
    code, live, failed, behaviors, digests, options = case
    if digests is None:
        got = repair_outcome(collaborative_repair, code, live, failed, behaviors, **options)
        want = repair_outcome(oracle_collaborative_repair, code, live, failed, behaviors, **options)
    else:
        args = (code, live, failed, behaviors, digests)
        got = repair_outcome(progressive_repair_with_digests, *args, **options)
        want = repair_outcome(oracle_progressive_repair_with_digests, *args, **options)
    assert got == want
