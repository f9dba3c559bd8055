"""Exact collaborative repair at minimum storage, built on Reed-Solomon.

An object is a t x kappa matrix O over GF(2^m); node i stores the
column O @ g_i of t unit-size pieces, where g_i is the i-th generator
column.  Any kappa nodes reconstruct O.  When t nodes fail, each
newcomer downloads its own row's evaluations from kappa live nodes,
solves the row, then exchanges cross pieces with the other newcomers so
every repaired block is bit-identical to the lost one (d = k = kappa).

Byzantine behaviors adjust the flow:

* a selfish newcomer kills the collaboration phase: survivors fetch the
  whole object themselves (both pieces from each contact);
* a selfish live node makes newcomers rebalance their demand over the
  nodes that did respond (ceiling/floor per link) and route the missing
  row evaluations through their peers;
* a polluting live node forces contacting 2 extra nodes per possible
  polluter so row decoding can outvote the bad equations, or, with a
  digest table, a progressive scheme that retries growing contact sets
  until the regenerated blocks verify.

Cost conventions match the classic accounting: gamma counts download
pieces plus one collaboration piece per newcomer pair.  In the
selfish-live scenario completing both stored pieces needs one extra
cross piece per pair beyond that accounting; those transfers are logged
in a separate completion ledger so the measured (beta_av, beta', gamma)
agree with the reference cost model while blocks stay exact.

Repair is logically two-phase (download barrier, then exchange barrier);
this implementation runs newcomers sequentially between the barriers and
draws all adversarial randomness from an explicit seed, so runs are
reproducible.  Newcomer j contacts its stripe: the id-sorted live list
rotated to start j * kappa nodes in, so the newcomers' first kappa
contacts are disjoint while the live nodes last.  Points come from the
code's int table, ``RsCode.point_values``, built with the code; a row of
exactly kappa symbols is interpolated in Newton form and evaluated at
the newcomers' points, which are looked up once per repair.
"""

from __future__ import annotations

import enum
import hashlib
import random
from collections import Counter
from dataclasses import dataclass, field as dc_field
from fractions import Fraction
from itertools import combinations, permutations
from math import comb
from operator import attrgetter
from typing import Mapping, Optional, Sequence

from .gf import (
    DecodeAmbiguityError,
    FieldElement,
    FieldMatrix,
    FieldMismatchError,
    GF,
    RsCode,
    SingularMatrixError,
    _decode_rows,
    _elements,
    _newton,
    _newton_at,
    dot,
    rs_decode,
)


class Behavior(str, enum.Enum):
    HONEST = "honest"
    SELFISH = "selfish"
    POLLUTING = "polluting"


class RepairPolicy(str, enum.Enum):
    # replacement strategy when a contacted live node is selfish
    KEEP_RESPONDERS = "keep-responders"
    CONTACT_NEW_NODES = "contact-new-nodes"


class RepairFailureError(RuntimeError):
    """The repair policy could not complete with the available nodes."""


class _Ambiguous:
    __slots__ = ()

    def __repr__(self) -> str:  # pragma: no cover - repr only
        return "AMBIGUOUS"


AMBIGUOUS = _Ambiguous()


@dataclass(frozen=True)
class ObjectMatrix:
    """The stored object, one row per expected simultaneous failure."""

    pieces: FieldMatrix

    @property
    def t(self) -> int:
        return self.pieces.rows

    @property
    def kappa(self) -> int:
        return self.pieces.cols

    @classmethod
    def random(cls, field_: GF, t: int, kappa: int, rng: random.Random) -> "ObjectMatrix":
        data = [rng.randrange(field_.order) for _ in range(t * kappa)]
        return cls(FieldMatrix(field_, t, kappa, data))

    def row(self, r: int) -> tuple[FieldElement, ...]:
        return self.pieces.row(r)


@dataclass(frozen=True)
class NodeBlock:
    """One node's stored block: t pieces, the object applied to its column."""

    node_id: int
    column: tuple[FieldElement, ...]
    payload: tuple[FieldElement, ...]

    @property
    def position(self) -> int:
        """0-based codeword position for 1-based node ids."""
        return self.node_id - 1

    def to_bytes(self) -> bytes:
        """Canonical serialization: m, node id, kappa, t, then the payload
        symbols in row order, each little-endian in ceil(m/8) bytes, except
        the node id, which runs to 2^m and takes ceil((m+1)/8) bytes.
        ValueError for an empty payload, which has no field, and for a
        kappa or t that does not fit its ceil(m/8) bytes."""
        if not self.payload:
            raise ValueError("block has no payload symbol")
        f = self.payload[0].field
        width = (f.m + 7) // 8
        out = bytearray(f.m.to_bytes(width, "little"))
        out += self.node_id.to_bytes((f.m + 8) // 8, "little")
        kappa, t = len(self.column), len(self.payload)
        if max(kappa, t) >> 8 * width:
            raise ValueError(f"kappa={kappa} and t={t} must fit the {width} byte(s)"
                             f" of a GF(2^{f.m}) symbol")
        for v in (kappa, t):
            out += v.to_bytes(width, "little")
        for sym in self.payload:
            out += sym.value.to_bytes(width, "little")
        return bytes(out)


@dataclass(frozen=True)
class FragmentDigestTable:
    """Trusted digests of every node's exact block for one object."""

    object_id: str
    digests: Mapping[int, bytes]

    @staticmethod
    def digest_of(block: NodeBlock) -> bytes:
        return hashlib.sha256(block.to_bytes()).digest()

    @classmethod
    def from_blocks(cls, object_id: str, blocks: Sequence[NodeBlock]) -> "FragmentDigestTable":
        return cls(object_id, {b.node_id: cls.digest_of(b) for b in blocks})

    def covers(self, node_ids: Sequence[int]) -> bool:
        return all(i in self.digests for i in node_ids)

    def verify(self, block: NodeBlock) -> bool:
        want = self.digests.get(block.node_id)
        return want is not None and want == self.digest_of(block)


def encode_object(obj: ObjectMatrix, code: RsCode) -> list[NodeBlock]:
    """Blocks for nodes 1..n; node i stores the object times column i."""
    if obj.kappa != code.kappa:
        raise ValueError(f"object width {obj.kappa} != code dimension {code.kappa}")
    if obj.pieces.field is not code.field:
        raise ValueError("object and code use different fields")
    f = code.field
    rows = obj.pieces.int_rows()
    return [
        _block(code, pos + 1, [dot(f, row, col) for row in rows])
        for pos, col in enumerate(code.column_values)
    ]


def _block(code: RsCode, node_id: int, values: Sequence[int]) -> NodeBlock:
    """The block of ``node_id``: its code column, the int ``values`` as
    elements (``gf._elements``)."""
    return NodeBlock(node_id, code.column(node_id - 1), _elements(code.field, values))


_SHARED_COLUMN = "blocks of different nodes share a column"


def _read_setup(blocks: Sequence[NodeBlock]) -> tuple[int, Optional[list[int]]]:
    """(kappa, points): kappa of the blocks' code, and their Reed-Solomon
    points, or None for other columns, after the entry checks that
    ``collect_robust`` lists."""
    if not blocks:
        raise ValueError("no blocks given")
    if not blocks[0].column or not blocks[0].payload:
        raise ValueError("block has no column entry or no payload symbol")
    f = blocks[0].column[0].field
    if any(s.field is not f for b in blocks for s in b.column + b.payload):
        raise FieldMismatchError("blocks from different fields")
    kappa, t = len(blocks[0].column), len(blocks[0].payload)
    if any(len(b.column) != kappa or len(b.payload) != t for b in blocks):
        raise ValueError("blocks differ in column or payload length")
    ids = [b.node_id for b in blocks]
    if len(set(ids)) != len(ids):
        raise ValueError("duplicate node ids")
    if len(blocks) < kappa:
        raise ValueError(f"{len(blocks)} blocks given, need at least {kappa}")
    points = _rs_points(blocks, kappa)
    if points is None and kappa > 1 and len({b.column for b in blocks}) < len(blocks):
        raise ValueError(_SHARED_COLUMN)
    return kappa, points


def _rs_points(blocks: Sequence[NodeBlock], kappa: int) -> Optional[list[int]]:
    """The points x of the blocks if every column is (1, x, ..., x^(kappa-1)),
    as ints, else None (always for kappa < 2, where x is not determined).
    ValueError when two of them share a point, and so a column."""
    if kappa < 2:
        return None
    f = blocks[0].column[0].field
    exp, log, size = f._exp, f._log, f.order - 1
    points = []
    for b in blocks:
        column = b.column
        if column[0].value != 1:
            return None
        x = column[1].value
        lx = log[x]
        for j in range(2, kappa):
            if column[j].value != (exp[lx * j % size] if x else 0):
                return None
        points.append(x)
    if len(set(points)) < len(points):
        raise ValueError(_SHARED_COLUMN)
    return points


def _solve_object(blocks: Sequence[NodeBlock], kappa: int, points) -> list[list[int]]:
    """The object's rows, as ints, from the blocks: at their Reed-Solomon
    ``points`` the rows decoded by ``gf._decode_rows`` (DecodeAmbiguityError
    at the first row beyond the radius); else one Gauss-Jordan solve of
    the kappa blocks (SingularMatrixError when their columns are dependent)."""
    f, t = blocks[0].payload[0].field, len(blocks[0].payload)
    if points is not None:
        return _decode_rows(f, points, [[b.payload[r].value for b in blocks] for r in range(t)], kappa)
    # columns^T . O^T = payload rows: the block columns are the rows
    cols = FieldMatrix.from_rows(f, [[c.value for c in b.column] for b in blocks])
    rhs = FieldMatrix.from_rows(f, [[p.value for p in b.payload] for b in blocks])
    return cols.solve(rhs).transpose().int_rows()


def collect(blocks: Sequence[NodeBlock]) -> ObjectMatrix:
    """The e = 0 read, ``collect_robust(blocks, 0)``: the object that
    agrees with every block, with ValueError in place of AMBIGUOUS."""
    obj = collect_robust(blocks, 0)
    if obj is AMBIGUOUS:
        raise ValueError("no unique object agrees with every block")
    return obj


def collect_robust(blocks: Sequence[NodeBlock], max_polluters: int):
    """Object recovery that tolerates wrong payloads.

    Returns the unique object that disagrees with at most
    ``max_polluters`` (e, a nonnegative int, else ValueError) of the given
    blocks; when there is none, or more than one, AMBIGUOUS is returned
    rather than a possibly wrong object.  With at least kappa + e honest
    blocks the true object is that unique answer; ``collect`` is the
    e = 0 read.  ValueError for fewer than kappa blocks, a repeated node
    id, an empty column or payload, blocks of different shapes, or two
    blocks that share a column (for kappa > 1); FieldMismatchError for
    symbols from different fields.  Past that, e > N - kappa for the N
    blocks is AMBIGUOUS: every object that agrees with some kappa - 1
    blocks qualifies, and there are none or at least |F| of them.

    Candidates come from trial erasure decoding: in a pool of the first P
    of the N blocks by node id, each set of s erased blocks leaves P - s
    for ``_solve_object``, skipping dependent columns and rows beyond the
    radius.  On Reed-Solomon columns s = max(0, 2e - (P - kappa)): an
    answer disagrees with at most e pool blocks, and erasing s of them
    leaves at most (P - s - kappa)/2, within the decoding radius.  P is
    the smallest in kappa + e..N with the fewest C(P, s) erasure sets;
    inside the radius (2e <= N - kappa) that is one decode of the first
    kappa + 2e blocks.  Other columns, and kappa = 1, solve every
    kappa-subset in order: P = N, s = N - kappa.  Each distinct candidate
    is checked on ints against all blocks, each up to its first wrong
    symbol.  At e = 0 the first one solved ends the search: an object
    that agrees with every block is the one its blocks determine.
    """
    e = max_polluters
    if not (type(e) is int and e >= 0):
        raise ValueError(f"max_polluters must be a nonnegative integer, got {e!r}")
    ordered = sorted(blocks, key=lambda b: b.node_id)
    kappa, points = _read_setup(ordered)
    n = len(ordered)
    if e > n - kappa:
        return AMBIGUOUS
    if points is None:
        pool, erased = n, n - kappa
    else:
        shapes = [(p, max(0, 2 * e - (p - kappa))) for p in range(kappa + e, n + 1)]
        pool, erased = min(shapes, key=lambda shape: comb(*shape))

    f = ordered[0].column[0].field
    columns = [[c.value for c in b.column] for b in ordered]
    qualified: list[tuple[int, ...]] = []
    seen: set[tuple[int, ...]] = set()
    for kept in combinations(range(pool), pool - erased):
        try:
            rows = _solve_object(
                [ordered[i] for i in kept], kappa, points and [points[i] for i in kept]
            )
        except (SingularMatrixError, DecodeAmbiguityError):
            continue
        key = tuple(v for row in rows for v in row)
        if key in seen:
            continue
        seen.add(key)
        if sum(
            any(dot(f, row, col) != p.value for row, p in zip(rows, b.payload))
            for col, b in zip(columns, ordered)
        ) <= e:
            qualified.append(key)
        if not e:
            break
    if len(qualified) != 1:
        return AMBIGUOUS
    return ObjectMatrix(FieldMatrix(f, len(ordered[0].payload), kappa, qualified[0]))


# --- collaborative repair ---


def _ledger() -> Counter:
    """An empty Counter.  ``Counter()`` runs ``Counter.__init__``, whose
    only work with no argument is a no-op ``update``; every repair makes
    t + 2 ledgers, so they are made by ``__new__`` alone."""
    return Counter.__new__(Counter)


@dataclass
class RepairReport:
    """Per-repair transfer ledgers and the derived normalized costs.

    The ledgers are Counters of pieces, keyed in order of first transfer.
    ``downloads`` holds one per newcomer, keyed by source node.
    ``exchanges`` holds the collaboration pieces the reference cost model
    counts (one per ordered newcomer pair, and in a digest repair one per
    ordered pair of measured newcomers for each kappa-subset it tries),
    keyed (sender, receiver);
    ``completion`` holds cross pieces moved beyond that accounting (only
    the selfish-live policy needs them, because its counted exchange
    slots carry relayed row evaluations instead).  ``measured`` lists the
    newcomers whose costs the headline numbers summarize (the
    non-Byzantine ones).  ``unit_pieces`` is B/k in pieces, the int t.
    """

    unit_pieces: int
    downloads: dict[int, Counter] = dc_field(default_factory=dict)
    exchanges: Counter = dc_field(default_factory=_ledger)
    completion: Counter = dc_field(default_factory=_ledger)
    contacted: dict[int, tuple[int, ...]] = dc_field(default_factory=dict)
    measured: tuple[int, ...] = ()

    @property
    def effective_d(self) -> int:
        if not self.measured:
            return 0
        return max(len(self.contacted.get(nc, ())) for nc in self.measured)

    def cost_ratios(self) -> tuple[tuple[int, int], ...]:
        """The normalized (beta_av, beta', gamma): pieces per download
        link, per ordered pair of measured newcomers and per measured
        newcomer, over unit_pieces.  Each is a (numerator, denominator)
        pair of ints, 0/1 when there is nothing to average over, so
        ``num / den`` is the correctly rounded float, as
        ``float(Fraction(num, den))`` is.  Ledger counts are never
        negative, so the measured newcomers download the sum of the link
        loads."""
        m, inside, t = len(self.measured), set(self.measured), self.unit_pieces
        loads = [v for nc in self.measured for v in self.downloads.get(nc, {}).values() if v > 0]
        exchanged = received = 0
        for (src, dst), v in self.exchanges.items():
            if dst in inside:
                received += v
                if src in inside:
                    exchanged += v
        downloaded = sum(loads)
        return (
            (downloaded, len(loads) * t) if loads else (0, 1),
            (exchanged, m * (m - 1) * t) if m >= 2 else (0, 1),
            (downloaded + received, m * t) if m else (0, 1),
        )

    @property
    def beta_av(self) -> Fraction:
        return Fraction(*self.cost_ratios()[0])

    @property
    def beta_prime(self) -> Fraction:
        return Fraction(*self.cost_ratios()[1])

    @property
    def gamma(self) -> Fraction:
        return Fraction(*self.cost_ratios()[2])

    @property
    def total_pieces(self) -> int:
        return (
            sum(sum(d.values()) for d in self.downloads.values())
            + sum(self.exchanges.values())
            + sum(self.completion.values())
        )


_node_id = attrgetter("node_id")


def _wrong_symbol(true: FieldElement, rng: random.Random) -> FieldElement:
    f = true.field
    return FieldElement(true.value ^ rng.randrange(1, f.order), f)


def _as_served(
    block: NodeBlock, behaviors: Mapping[int, Behavior], rng: Optional[random.Random]
) -> NodeBlock:
    """The block as its node serves it: a polluting node gets every symbol
    wrong.  ``behaviors`` may omit honest nodes."""
    if behaviors.get(block.node_id) is not Behavior.POLLUTING:
        return block
    payload = tuple(_wrong_symbol(p, rng) for p in block.payload)
    return NodeBlock(block.node_id, block.column, payload)


def _row_answer(block: NodeBlock, row: int, roles, rng) -> int:
    """The symbol of ``row`` that a responsive (not selfish) node sends, as
    an int; a polluter's is wrong by the draw ``_wrong_symbol`` makes.
    ``rng`` is None when no node pollutes."""
    true = block.payload[row]
    if rng is not None and roles.get(block.node_id) is Behavior.POLLUTING:
        return true.value ^ rng.randrange(1, true.field.order)
    return true.value


def _rows_at(code, positions, rows, xs) -> list[list[int]]:
    """Each object row, from its received int symbols at the kappa or more
    distinct ``positions`` (any iterable of them, a mapping's keys
    included), evaluated at the int points ``xs``, as ints (out[r][i] is
    row r at xs[i]).  Points are read from the code's int table,
    ``RsCode.point_values``; callers look the targets up there once.
    With exactly kappa symbols the row is their interpolant: ``_newton``
    builds it in Newton form and ``_newton_at`` evaluates that at xs,
    never expanded into coefficients; with more, the rows are decoded by
    ``gf._decode_rows`` (Gao) in one call, and each message, which is its
    own Newton form on points that are all zero, is evaluated at xs by
    ``_newton_at`` too.  RepairFailureError at the first row that does
    not decode."""
    f, kappa = code.field, code.kappa
    at = code.point_values
    points = [at[p] for p in positions]
    if len(points) == kappa:
        return [_newton_at(f, points, _newton(f, points, ys), xs) for ys in rows]
    try:
        msgs = _decode_rows(f, points, rows, kappa)
    except DecodeAmbiguityError:
        raise RepairFailureError(
            f"row decoding failed: no codeword within n_s + 2*n_b <= {code.n - kappa}"
            f" (n_s={code.n - len(points)})"
        ) from None
    zeros = [0] * kappa
    return [_newton_at(f, zeros, msg, xs) for msg in msgs]


def _start_repair(code, live_blocks, failed_ids, behaviors, seed):
    """The checked inputs both repair entry points start from: the roles
    of the misbehaving live and failed nodes (a Behavior; an id it omits
    is honest), the seeded RNG of wrong symbols (None when no node
    pollutes), live blocks by id, failed ids sorted, and a report with a
    download ledger per newcomer that measures the honest ones.  Every
    node id, and every key of ``behaviors``, must be an int in 1..n:
    id - 1 is its codeword position.  Every live payload holds the same
    number t >= 1 of symbols over the code's field (repairs never read a
    block's column)."""
    behaviors = {i: Behavior(b) for i, b in (behaviors or {}).items()}
    live, failed = list(live_blocks), list(failed_ids)
    live_id_list = [b.node_id for b in live]
    odd = [i for i in live_id_list + failed if type(i) is not int]
    if odd:  # checked before the sort, which would compare them
        raise ValueError(f"node ids {odd} are not ints")
    live.sort(key=_node_id)
    live_ids = set(live_id_list)
    if len(live_ids) != len(live):
        raise ValueError("duplicate live node ids")
    if not live:  # no block gives t, so the failed ids cannot be checked
        raise ValueError("no live blocks")
    t, field_ = len(live[0].payload), code.field
    if not t:
        raise ValueError("live blocks hold no payload symbol")
    for b in live:
        if len(b.payload) != t:
            raise ValueError(f"live blocks hold {t} and {len(b.payload)} pieces")
        for s in b.payload:
            if s.field is not field_:
                raise FieldMismatchError(f"block of node {b.node_id} is not over the code's field")
    if len(failed) != t:
        raise ValueError(f"expected {t} failed ids, got {len(failed)}")
    if len(set(failed)) != t:
        raise ValueError("duplicate failed ids")
    if live_ids.intersection(failed):
        raise ValueError("failed ids overlap live nodes")
    ids = live_ids.union(failed)
    if min(ids) < 1 or max(ids) > code.n:
        strays = sorted(i for i in ids if not 1 <= i <= code.n)
        raise ValueError(f"node ids {strays} outside 1..{code.n}")
    failed.sort()
    keys = [i for i in behaviors if type(i) is not int or not 1 <= i <= code.n]
    if keys:
        raise ValueError(f"behavior keys {keys} are not node ids in 1..{code.n}")
    if len(live) < code.kappa:
        raise RepairFailureError(f"{len(live)} live nodes, need at least {code.kappa}")
    roles = {i: b for i, b in behaviors.items() if b is not Behavior.HONEST and i in ids}
    report = RepairReport(
        unit_pieces=t,
        downloads={f: _ledger() for f in failed},
        measured=tuple(f for f in failed if f not in roles),
    )
    rng = random.Random(seed) if Behavior.POLLUTING in roles.values() else None
    return roles, rng, live, failed, report


def collaborative_repair(
    code: RsCode,
    live_blocks: Sequence[NodeBlock],
    failed_ids: Sequence[int],
    behaviors: Optional[Mapping[int, Behavior]] = None,
    *,
    policy: RepairPolicy = RepairPolicy.KEEP_RESPONDERS,
    assumed_polluters: Optional[int] = None,
    seed: int = 0,
) -> tuple[list[NodeBlock], RepairReport]:
    """Two-phase repair of ``failed_ids`` from the live blocks.

    ``behaviors`` maps node ids (live nodes and newcomers, keyed by the
    id they replace) to a Behavior or its string; missing ids are honest.
    A node id or a key of ``behaviors`` that is not an int in 1..n raises
    ValueError.
    ``policy`` is a RepairPolicy or its string: whether a collaborative
    repair relays the row evaluations its newcomers' contacts withheld,
    or raises.  ``assumed_polluters``, a nonnegative int, is the number of
    polluting live nodes the repair procedure plans for; it defaults to
    the actual count in ``behaviors``, and 0 makes a trusting repair.

    Each newcomer walks its contact stripe until kappa nodes, plus 2 per
    assumed polluter (at most every responsive live node), have answered,
    whatever the policy.  Only a trusting keep-responders repair with
    honest newcomers stops at kappa contacts: its peers relay the rest.
    """
    assumed = assumed_polluters
    if not (assumed is None or type(assumed) is int and assumed >= 0):
        raise ValueError(f"assumed_polluters must be a nonnegative integer, got {assumed!r}")
    roles, rng, live, failed, report = _start_repair(
        code, live_blocks, failed_ids, behaviors, seed
    )
    policy = RepairPolicy(policy)
    live_roles = [b for i, b in roles.items() if i not in failed]
    if assumed is None:
        assumed = live_roles.count(Behavior.POLLUTING)
    need = code.kappa
    if assumed:
        responsive = len(live) - live_roles.count(Behavior.SELFISH)
        need = min(code.kappa + 2 * assumed, responsive)

    if len(report.measured) < len(failed):  # a Byzantine newcomer
        return _repair_without_collaboration(code, live, failed, roles, need, rng, report), report
    if policy is RepairPolicy.KEEP_RESPONDERS and not assumed:
        need = 0  # relays fill the rows of newcomers whose contacts were selfish
    return _repair_with_collaboration(code, live, failed, roles, policy, need, rng, report), report


def _contacts(
    live: Sequence[NodeBlock], j: int, kappa: int, roles: Mapping[int, Behavior], need: int
) -> tuple[list[NodeBlock], list[NodeBlock]]:
    """(contacted, responders) of the newcomer that repairs row ``j``.

    The newcomer's stripe is the id-sorted live list rotated to start
    j * kappa nodes in (modulo its length): after the kappa nodes claimed
    by newcomers 0..j-1, wrapping.  The newcomer contacts the first kappa
    nodes of its stripe, then walks on until ``need`` of its contacts
    responded, or the stripe runs out.  The contacted list includes the
    selfish nodes met along the way, and the responders are the others
    in the same order.  ``roles`` may omit honest nodes.  Draws no
    randomness.
    """
    start = j * kappa % len(live)
    stripe = live[start:] + live[:start]
    selfish = Behavior.SELFISH
    contacted = stripe[:kappa]
    responders = [b for b in contacted if roles.get(b.node_id) is not selfish]
    for b in stripe[kappa:]:
        if len(responders) >= need:
            break
        contacted.append(b)
        if roles.get(b.node_id) is not selfish:
            responders.append(b)
    return contacted, responders


def _repair_with_collaboration(code, live, failed, roles, policy, need, rng, report):
    kappa = code.kappa

    # Phase 1: each newcomer picks its contacts and downloads its own row
    # from those that respond.
    responders: dict[int, list[NodeBlock]] = {}
    equations: dict[int, dict[int, int]] = {}  # by codeword position
    for j, f in enumerate(failed):
        contacted, answering = _contacts(live, j, kappa, roles, need)
        responders[f] = answering
        ids = tuple(map(_node_id, answering))
        # the responders are an in-order subset of the contacts
        same = len(contacted) == len(answering)
        report.contacted[f] = ids if same else tuple(map(_node_id, contacted))
        equations[f] = {b.node_id - 1: _row_answer(b, j, roles, rng) for b in answering}
        report.downloads[f].update(ids)

    # Relay plan: rows short of kappa equations borrow evaluation points
    # through peers, spreading the extra demand evenly over links (the
    # download ledger is the link load).  Each relayed piece is counted
    # as an exchange from its carrier, so until phase 2 the exchange
    # ledger holds relays only.
    for j, f in enumerate(failed):
        missing = kappa - len(equations[f])
        if missing <= 0:
            continue
        if policy is RepairPolicy.CONTACT_NEW_NODES:
            raise RepairFailureError("not enough responsive live nodes to gather a row")
        for _ in range(missing):
            options = []
            for peer in failed:
                if peer == f:
                    continue
                for b in responders[peer]:
                    if b.node_id - 1 in equations[f]:
                        continue
                    options.append((report.downloads[peer][b.node_id], b.node_id, peer, b))
            if not options:
                raise RepairFailureError(
                    f"responding nodes cannot span the data of node {f}"
                )
            _, _, carrier, src = min(options)
            equations[f][src.node_id - 1] = _row_answer(src, j, roles, rng)
            report.downloads[carrier][src.node_id] += 1
            report.exchanges[(carrier, f)] += 1

    # each newcomer's row (kappa equations, more when polluters are assumed)
    # at every newcomer's point: its own piece and the cross pieces it sends
    at = code.point_values
    xs = [at[f - 1] for f in failed]
    rows: list[list[int]] = []
    for eqs in equations.values():
        rows += _rows_at(code, eqs, [eqs.values()], xs)

    # Phase 2: cross pieces.  With relays in flight the counted exchange
    # slots are spent, so completion pieces ride in their own ledger.
    cross_ledger = report.completion if report.exchanges else report.exchanges
    cross_ledger.update(permutations(failed, 2))

    # newcomer i stores column i: every row at its own position
    return [_block(code, p, pieces) for p, pieces in zip(failed, zip(*rows))]


def _repair_without_collaboration(code, live, failed, roles, need, rng, report):
    """Fallback when a newcomer is Byzantine: everyone fetches the whole
    object (every row from every contact) and repairs alone."""
    t, kappa = len(live[0].payload), code.kappa

    new_blocks = []
    for j, f in enumerate(failed):
        contacted, responders = _contacts(live, j, kappa, roles, need)
        report.contacted[f] = tuple(b.node_id for b in contacted)
        if len(responders) < kappa:
            raise RepairFailureError(
                "a full reconstruction needs more responsive contacts than available"
            )
        rows = [[_row_answer(b, r, roles, rng) for b in responders] for r in range(t)]
        report.downloads[f].update(dict.fromkeys(map(_node_id, responders), t))
        positions = [b.node_id - 1 for b in responders]
        pieces = _rows_at(code, positions, rows, [code.point_values[f - 1]])
        new_blocks.append(_as_served(_block(code, f, [v for (v,) in pieces]), roles, rng))
    return new_blocks


def progressive_repair_with_digests(
    code: RsCode,
    live_blocks: Sequence[NodeBlock],
    failed_ids: Sequence[int],
    behaviors: Optional[Mapping[int, Behavior]],
    digests: FragmentDigestTable,
    *,
    seed: int = 0,
) -> tuple[list[NodeBlock], RepairReport]:
    """Repair with integrity verification instead of equation voting.

    All newcomers share a contact set that starts at the kappa
    lowest-id live nodes.  Candidate rows are solved from kappa-sized
    subsets of the downloaded equations and the assembled blocks checked
    against the digest table; on mismatch one more live node is
    contacted and the subsets retried, so good equations are never spent
    merely to outvote bad ones.  Fails only when the live set is
    exhausted without a verified assembly.
    """
    roles, rng, live, failed, report = _start_repair(
        code, live_blocks, failed_ids, behaviors, seed
    )
    if not digests.covers(failed):
        raise ValueError("digest table does not cover the failed nodes")
    t, kappa = len(failed), code.kappa
    byz = set(failed) - set(report.measured)

    # rows each newcomer must solve itself: its own, plus rows owned by
    # Byzantine peers (their pieces will not arrive via collaboration)
    needed: dict[int, list[int]] = {}
    for j, f in enumerate(failed):
        if f in byz:
            needed[f] = list(range(t))
        else:
            needed[f] = sorted({j} | {i for i, p in enumerate(failed) if p in byz})

    equations: dict[tuple[int, int], dict[int, int]] = {  # by codeword position
        (f, r): {} for f in failed for r in needed[f]
    }

    for count, block in enumerate(live, 1):
        if roles.get(block.node_id) is not Behavior.SELFISH:  # a selfish contact sends nothing
            for f in failed:
                for r in needed[f]:
                    equations[(f, r)][block.node_id - 1] = _row_answer(block, r, roles, rng)
                report.downloads[f][block.node_id] += len(needed[f])
        if count < kappa:
            continue
        result = _try_verified_assembly(code, failed, equations, digests, report)
        if result is not None:
            report.contacted = dict.fromkeys(failed, tuple(b.node_id for b in live[:count]))
            # a polluting newcomer stores garbage even after a verified repair
            return [_as_served(block, roles, rng) for block in result], report
    raise RepairFailureError(f"no verified repair with all {len(live)} live nodes contacted")


def _try_verified_assembly(code, failed, equations, digests, report):
    # Every row map holds the same positions: a contacted node answers
    # every row or, when selfish, none.  Any kappa of them are distinct
    # in-range positions with a symbol, which rs_decode interpolates and
    # never rejects, so every subset yields a candidate for the digests.
    # Each (key, subset) is one rs_decode: one O(kappa^2) interpolation
    # of its kappa symbols, given as elements.  The subsets of every row
    # map are taken in lockstep, in the same order of positions.
    received = [sorted(zip(eqs, _elements(code.field, eqs.values()))) for eqs in equations.values()]
    for subsets in zip(*[combinations(pairs, code.kappa) for pairs in received]):
        rows = {
            key: [v.value for v in rs_decode(code, subset)]
            for key, subset in zip(equations, subsets)
        }
        # the candidate cross pieces between honest pairs are counted once
        # for each kappa-subset tried
        report.exchanges.update(permutations(report.measured, 2))
        blocks = []
        for f in failed:
            column = code.column_values[f - 1]
            held = [rows[(f, i) if (f, i) in rows else (peer, i)] for i, peer in enumerate(failed)]
            block = _block(code, f, [dot(code.field, row, column) for row in held])
            if not digests.verify(block):
                break
            blocks.append(block)
        else:
            return blocks
    return None
