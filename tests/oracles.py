"""Brute-force reference implementations used to check the fast code.

These deliberately share nothing with the package internals: plain
enumeration of collector partitions and adversary placements, with the
cut sum evaluated termwise; a prefix DP over group sizes for free
partitions with no budget, reaching sizes the enumeration cannot, and
the earlier free-partition scan, whose floats the current one must
match bit for bit; the float cut of one witness, added in the order
of each search strategy; exhaustive-subset Reed-Solomon decoding and
object collection, built only on the public field and matrix API; the
earlier interpolation by one synthetic division per point, and a
block's payload as the object times its column; contact selection
as two branches over a behavior map that may omit honest nodes; and
both repairs, one piece and one ledger entry at a time, every row
solved by the public ``rs_decode`` and every piece read off its
codeword.
The decoders cost C(N, kappa) solves, so keep them to small codes.  The
grid optimizer's oracle scans every cell of each refinement round in
gamma order; it shares only the grid-size constants with the package.
The minimum-storage windows are the earlier per-kind code, written out
once for the selfish bounds and once, with the factor 2 inlined, for
the polluting window; they use only public names of ``capacity``.
"""

import random
from collections import Counter
from fractions import Fraction as F
from itertools import combinations

from collabregen.capacity import (
    AdversaryKind,
    InfeasibleError,
    ParameterError,
    mbr_point,
    msr_point,
)
from collabregen.exactcode import (
    AMBIGUOUS,
    Behavior,
    NodeBlock,
    ObjectMatrix,
    RepairFailureError,
    RepairPolicy,
    RepairReport,
)
from collabregen.tradeoff import _GRID_POINTS, _MAX_REFINEMENTS, _MIN_REFINEMENTS
from collabregen.gf import (
    DecodeAmbiguityError,
    FieldElement,
    FieldMatrix,
    InsufficientSymbolsError,
    SingularMatrixError,
    rs_decode,
)


def compositions(k, t, g=None):
    """All orderings u_0..u_{g-1} with 1 <= u_i <= t summing to k."""
    if k == 0:
        if g in (None, 0):
            yield ()
        return
    if g == 0:
        return
    for u in range(1, min(t, k) + 1):
        for rest in compositions(k - u, t, None if g is None else g - 1):
            yield (u,) + rest


def allocations(g, total, maxa):
    """All per-group counts in 0..maxa summing exactly to total."""
    if g == 0:
        if total == 0:
            yield ()
        return
    for a in range(min(maxa, total) + 1):
        for rest in allocations(g - 1, total - a, maxa):
            yield (a,) + rest


def oracle_search(p, adv, fixed_g):
    """(value, groups, allocation) of the minimum cut bound by exhaustive
    enumeration, ties going to the lexicographically smallest sequence
    u_0, a_0, u_1, a_1, ...; None when the adversary budget cannot be
    placed feasibly.  Integral operands are read as ints, which keeps
    the arithmetic exact and is faster than on Fractions."""
    f = adv.factor if adv else 1
    among = adv.among_live if adv else 0
    maxa = adv.per_group_max if adv else 0
    total = adv.total if adv else 0
    alpha, beta, beta_prime = (
        x.numerator if x.denominator == 1 else x for x in (p.alpha, p.beta, p.beta_prime)
    )
    best = None
    for groups in compositions(p.k, p.t, fixed_g):
        for alloc in allocations(len(groups), total, maxa):
            if adv and any(u > p.t - f * a for u, a in zip(groups, alloc)):
                continue
            value = 0
            prefix = 0
            for u, a in zip(groups, alloc):
                bw = max(0, p.d - f * among - prefix) * beta
                bw += max(0, p.t - f * a - u) * beta_prime
                value += u * min(alpha, bw)
                prefix += u
            if best is None or value < best[0] or (
                value == best[0] and _interleave(groups, alloc) < _interleave(*best[1:])
            ):
                best = (value, groups, alloc)
    return best


def oracle_partitions(p, adv, alpha, beta, beta_prime):
    """(value, groups, allocation) of the worst free partition with no
    budget, by the prefix DP over group sizes (the coordinated-repair
    min-cut of Kermarrec, Le Scouarnec and Straub, NetCod 2011): value[s]
    is the least cost of the nodes from prefix s on and choice[s] the
    smallest first group that reaches it, so the walk from prefix 0 gives
    the lexicographically smallest worst partition.  O(k*t) per call;
    ``adv`` only shifts the beta coefficients by its among-live nodes."""
    k, t = p.k, p.t
    f, among = (adv.factor, adv.among_live) if adv else (1, 0)
    coeffs = [max(0, p.d - f * among - s) for s in range(k)]
    collab = [c * beta_prime for c in range(t)]
    value: list = [None] * k + [0]
    choice = [0] * k
    for s in range(k - 1, -1, -1):
        live = coeffs[s] * beta
        low = None
        for u in range(1, min(t, k - s) + 1):
            x = live + collab[t - u]
            cand = u * (x if x < alpha else alpha) + value[s + u]
            if low is None or cand < low:
                low, arg = cand, u
        value[s] = low
        choice[s] = arg
    groups, s = [], 0
    while s < k:
        groups.append(choice[s])
        s += choice[s]
    return value[0], tuple(groups), (0,) * len(groups)


def oracle_partition_scan(p, adv, alpha, beta, beta_prime):
    """The free-partition closed form of ``tradeoff._cut_search`` as it
    stood before its scan was planned ahead, verbatim: single nodes, then
    one group of r, then full groups, for each count a of single nodes.
    Its floats are the reference the planned scan must match exactly."""
    k, t = p.k, p.t
    f, among = (adv.factor, adv.among_live) if adv else (1, 0)
    coeffs = [max(0, p.d - f * among - s) for s in range(k)]
    collab = [c * beta_prime for c in range(t)]
    head = [0]  # head[a]: single nodes at prefixes 0..a-1
    for c in coeffs:
        x = c * beta + collab[t - 1]
        head.append(head[-1] + (x if x < alpha else alpha))
    low, tail = None, 0  # tail: the full groups after the group of r
    for a in range(k - 1, -1, -1):
        r = (k - a - 1) % t + 1
        x = coeffs[a] * beta + collab[t - r]
        cand = head[a] + r * (m := x if x < alpha else alpha) + tail
        if low is None or cand < low:
            low, lead, size = cand, a, r
        if r == t:  # from a - 1 on, a full group starts at a
            tail += t * m
    groups = (1,) * lead + (size,) + (t,) * ((k - lead - size) // t)
    return low, groups, (0,) * len(groups)


def _interleave(groups, alloc):
    return tuple(x for pair in zip(groups, alloc) for x in pair)


def oracle_value(p, adv, fixed_g):
    """Minimum cut bound by exhaustive enumeration; None when the
    adversary budget cannot be placed feasibly."""
    best = oracle_search(p, adv, fixed_g)
    return None if best is None else best[0]


def _solve_subset(columns, rhs_rows):
    """X with columns^T X = rhs for kappa columns of length kappa."""
    f = columns[0][0].field
    a = FieldMatrix.from_rows(f, columns)
    return a.solve(FieldMatrix.from_rows(f, rhs_rows))


def oracle_rs_decode(code, received):
    """Exhaustive-subset decoding: interpolate every kappa-subset of the
    available symbols and return the unique candidate with
    n_s + 2*n_b <= n - kappa, else raise DecodeAmbiguityError."""
    avail = sorted((pos, sym.value) for pos, sym in received if sym is not None)
    kappa = code.kappa
    if len(avail) < kappa:
        raise InsufficientSymbolsError(f"{len(avail)} symbols, need {kappa}")
    n_s = code.n - len(avail)
    candidates = set()
    for subset in combinations(avail, kappa):
        cols = [code.column(pos) for pos, _ in subset]
        x = _solve_subset(cols, [[val] for _, val in subset])
        candidates.add(tuple(e.value for e in x.column(0)))
    certified = []
    for msg in candidates:
        word = code.encode([FieldElement(v, code.field) for v in msg])
        errs = sum(1 for pos, val in avail if word[pos].value != val)
        if n_s + 2 * errs <= code.n - kappa:
            certified.append(msg)
    if len(certified) != 1:
        raise DecodeAmbiguityError(f"{len(certified)} certified candidates")
    return tuple(FieldElement(v, code.field) for v in certified[0])


def oracle_interpolate(f, points, rows):
    """(g0, g1s), the master polynomial as ``gf._expand`` gives it and
    the interpolants as ``gf._expand`` gives them from ``gf._newton``,
    by the earlier algorithm on the field's public int arithmetic:
    g0 = prod_i (x - a_i) and, per row, g1 = sum_i y_i q_i / q_i(a_i)
    for q_i = g0 / (x - a_i), one synthetic division per point that
    evaluates q_i(a_i) by Horner's rule in the same pass; trailing zeros
    trimmed from every g1."""
    g0 = [1]
    for a in points:  # g0 *= x + a
        g0 = [lo ^ f.mul(a, hi) for lo, hi in zip([0] + g0, g0 + [0])]
    n = len(points)
    g1s = [[0] * n for _ in rows]
    for i, a in enumerate(points):
        q = [0] * n
        q[-1] = c = h = 1
        for k in range(n - 1, 0, -1):
            q[k - 1] = c = g0[k] ^ f.mul(a, c)
            h = f.mul(a, h) ^ c
        for row, g1 in zip(rows, g1s):
            w = f.div(row[i], h)
            for k, c in enumerate(q):
                g1[k] ^= f.mul(w, c)
    for g1 in g1s:
        while g1 and not g1[-1]:
            g1.pop()
    return g0, g1s


def apply_column(obj, column):
    """The payload of a block at ``column``: each object row times it."""
    f = obj.pieces.field
    return tuple(FieldElement(_dot(f, row, column), f) for row in obj.pieces.int_rows())


def oracle_collect_robust(blocks, max_polluters):
    """Subset consensus: the unique object solved from some kappa blocks
    that disagrees with at most ``max_polluters`` blocks, else AMBIGUOUS.
    A subset of dependent columns solves for nothing and is skipped.
    Past ``len(blocks) - kappa`` polluters the answer is AMBIGUOUS with no
    solve: every object that agrees with some kappa - 1 blocks qualifies,
    and there are none or at least |F| of them, most of which no
    kappa-subset solves for."""
    kappa = len(blocks[0].column)
    if max_polluters > len(blocks) - kappa:
        return AMBIGUOUS
    qualified = set()
    for subset in combinations(blocks, kappa):
        try:
            o_t = _solve_subset([b.column for b in subset], [b.payload for b in subset])
        except SingularMatrixError:
            continue
        obj = ObjectMatrix(o_t.transpose())
        rows = obj.pieces.int_rows()
        bad = 0
        for b in blocks:
            want = [_dot(obj.pieces.field, row, b.column) for row in rows]
            bad += want != [p.value for p in b.payload]
        if bad <= max_polluters:
            qualified.add(tuple(v for row in rows for v in row))
    if len(qualified) != 1:
        return AMBIGUOUS
    (flat,) = qualified
    f = blocks[0].column[0].field
    return ObjectMatrix(FieldMatrix(f, len(flat) // kappa, kappa, flat))


def oracle_contacts(live, j, kappa, behaviors, policy, assumed):
    """(contacted, responders) of the newcomer that repairs row ``j``.
    Its stripe starts j * kappa nodes into the id-sorted live list and
    wraps.  A trusting keep-responders repair contacts the first kappa
    nodes of it; any other walks it until it has contacted kappa nodes
    and hit kappa responsive ones, or kappa + 2 per assumed polluter (at
    most every responsive live node)."""

    def responds(b):
        return behaviors.get(b.node_id, Behavior.HONEST) is not Behavior.SELFISH

    order = [live[(j * kappa + i) % len(live)] for i in range(len(live))]
    if policy is RepairPolicy.KEEP_RESPONDERS and not assumed:
        contacted = order[:kappa]
        return contacted, [b for b in contacted if responds(b)]
    target = kappa
    if assumed:
        target = min(kappa + 2 * assumed, sum(1 for b in live if responds(b)))
    contacted, responders = [], []
    for b in order:
        if len(responders) >= target and len(contacted) >= kappa:
            break
        contacted.append(b)
        if responds(b):
            responders.append(b)
    return contacted, responders


class _OracleRepair:
    """The state both reference repairs share: every node's behavior
    (honest ones included), the seeded RNG of wrong symbols (None when no
    live or failed node pollutes), the sorted inputs and the ledgers."""

    def __init__(self, code, live_blocks, failed_ids, behaviors, seed):
        self.code = code
        self.live = sorted(live_blocks, key=lambda b: b.node_id)
        self.failed = sorted(failed_ids)
        self.behaviors = {i: Behavior(b) for i, b in (behaviors or {}).items()}
        nodes = [b.node_id for b in self.live] + self.failed
        polluting = any(self.role(i) is Behavior.POLLUTING for i in nodes)
        self.rng = random.Random(seed) if polluting else None
        self.report = RepairReport(
            unit_pieces=len(self.failed),
            downloads={f: Counter() for f in self.failed},
            measured=tuple(f for f in self.failed if self.role(f) is Behavior.HONEST),
        )
        if len(self.live) < code.kappa:
            raise RepairFailureError("fewer live nodes than kappa")

    def role(self, node_id):
        return self.behaviors.get(node_id, Behavior.HONEST)

    def answer(self, block, row):
        """The int symbol of ``row`` that ``block``'s node sends."""
        value = block.payload[row].value
        if self.role(block.node_id) is Behavior.POLLUTING:
            return value ^ self.rng.randrange(1, self.code.field.order)
        return value

    def served(self, block):
        """``block`` as its node stores and serves it."""
        if self.role(block.node_id) is not Behavior.POLLUTING:
            return block
        f = self.code.field
        wrong = [FieldElement(p.value ^ self.rng.randrange(1, f.order), f) for p in block.payload]
        return NodeBlock(block.node_id, block.column, tuple(wrong))

    def message(self, equations):
        """The message of one row from its {position: int symbol} map,
        decoded by ``rs_decode``; RepairFailureError beyond the radius."""
        f = self.code.field
        try:
            return rs_decode(self.code, [(p, FieldElement(v, f)) for p, v in equations.items()])
        except DecodeAmbiguityError:
            raise RepairFailureError("a row does not decode") from None

    def block(self, node_id, messages):
        """The block of ``node_id``: each row's message encoded at its position."""
        pieces = [self.code.encode(msg)[node_id - 1] for msg in messages]
        return NodeBlock(node_id, self.code.column(node_id - 1), tuple(pieces))


def oracle_collaborative_repair(
    code,
    live_blocks,
    failed_ids,
    behaviors=None,
    *,
    policy=RepairPolicy.KEEP_RESPONDERS,
    assumed_polluters=None,
    seed=0,
):
    """``collaborative_repair`` written out plainly for valid inputs: the
    same contacts (``oracle_contacts``), RNG draws and ledger updates, one
    piece at a time, every row solved by ``rs_decode`` and every piece
    read off the row's codeword.  Raises RepairFailureError where the
    repair does."""
    state = _OracleRepair(code, live_blocks, failed_ids, behaviors, seed)
    live, failed, report, kappa = state.live, state.failed, state.report, code.kappa
    policy = RepairPolicy(policy)
    assumed = assumed_polluters
    if assumed is None:
        assumed = sum(state.role(b.node_id) is Behavior.POLLUTING for b in live)
    byzantine = len(report.measured) < len(failed)

    if byzantine:
        # every newcomer fetches every row from kappa responders, or
        # kappa + 2 per assumed polluter, and repairs alone
        new_blocks = []
        for j, f in enumerate(failed):
            contacted, responders = oracle_contacts(
                live, j, kappa, state.behaviors, RepairPolicy.CONTACT_NEW_NODES, assumed
            )
            report.contacted[f] = tuple(b.node_id for b in contacted)
            if len(responders) < kappa:
                raise RepairFailureError("too few responders for a full reconstruction")
            rows = [
                {b.node_id - 1: state.answer(b, r) for b in responders} for r in range(len(failed))
            ]
            for b in responders:
                for _ in rows:
                    report.downloads[f][b.node_id] += 1
            block = state.block(f, [state.message(eqs) for eqs in rows])
            new_blocks.append(state.served(block))
        return new_blocks, report

    responders, equations = {}, {}
    for j, f in enumerate(failed):
        contacted, responders[f] = oracle_contacts(
            live, j, kappa, state.behaviors, policy, assumed
        )
        report.contacted[f] = tuple(b.node_id for b in contacted)
        equations[f] = {}
        for b in responders[f]:
            equations[f][b.node_id - 1] = state.answer(b, j)
            report.downloads[f][b.node_id] += 1

    # a row short of kappa symbols borrows them one at a time from the
    # least loaded link of a peer, ties to the lowest source id, then peer
    for j, f in enumerate(failed):
        while len(equations[f]) < kappa:
            if policy is RepairPolicy.CONTACT_NEW_NODES:
                raise RepairFailureError("not enough responsive live nodes to gather a row")
            options = sorted(
                (report.downloads[peer][b.node_id], b.node_id, peer)
                for peer in failed
                if peer != f
                for b in responders[peer]
                if b.node_id - 1 not in equations[f]
            )
            if not options:
                raise RepairFailureError("responding nodes cannot span the row")
            _, src, carrier = options[0]
            (block,) = [b for b in live if b.node_id == src]
            equations[f][src - 1] = state.answer(block, j)
            report.downloads[carrier][src] += 1
            report.exchanges[(carrier, f)] += 1

    messages = [state.message(equations[f]) for f in failed]
    # the cross pieces: counted exchanges, or completion pieces once relays
    # have spent the counted slots
    cross = report.completion if report.exchanges else report.exchanges
    for sender in failed:
        for receiver in failed:
            if sender != receiver:
                cross[(sender, receiver)] += 1
    return [state.block(f, messages) for f in failed], report


def oracle_progressive_repair_with_digests(code, live_blocks, failed_ids, behaviors, digests, *, seed=0):
    """``progressive_repair_with_digests`` written out plainly for valid
    inputs: contact the live nodes in id order; from the kappa-th on,
    after each contact, try the kappa-subsets of the answering positions
    in order, solving every needed row of a subset by ``rs_decode``,
    counting one exchange per ordered pair of measured newcomers, and
    keeping the first subset whose assembled blocks all verify."""
    state = _OracleRepair(code, live_blocks, failed_ids, behaviors, seed)
    live, failed, report, kappa = state.live, state.failed, state.report, code.kappa
    t = len(failed)
    # a measured newcomer solves its own row and every Byzantine peer's
    needed = {
        f: [r for r, peer in enumerate(failed) if peer == f or peer not in report.measured]
        if f in report.measured
        else list(range(t))
        for f in failed
    }
    equations = {(f, r): {} for f in failed for r in needed[f]}
    for count, block in enumerate(live, 1):
        if state.role(block.node_id) is not Behavior.SELFISH:
            for f in failed:
                for r in needed[f]:
                    equations[(f, r)][block.node_id - 1] = state.answer(block, r)
                for _ in needed[f]:
                    report.downloads[f][block.node_id] += 1
        if count < kappa:
            continue
        positions = sorted({p for eqs in equations.values() for p in eqs})
        for subset in combinations(positions, kappa):
            messages = {
                key: state.message({p: eqs[p] for p in subset}) for key, eqs in equations.items()
            }
            for sender in report.measured:
                for receiver in report.measured:
                    if sender != receiver:
                        report.exchanges[(sender, receiver)] += 1
            blocks = []
            for f in failed:
                own = [messages[(f, r) if (f, r) in messages else (peer, r)] for r, peer in enumerate(failed)]
                blocks.append(state.block(f, own))
            if all(digests.verify(b) for b in blocks):
                report.contacted = {f: tuple(b.node_id for b in live[:count]) for f in failed}
                return [state.served(b) for b in blocks], report
    raise RepairFailureError("no verified repair with every live node contacted")


def _dot(f, row, column):
    acc = 0
    for r, c in zip(row, column):
        acc ^= f.mul(r, c.value)
    return acc


def oracle_grid_search(search, alpha, B, d, t, bounds, warm=None, tolerance=1e-4):
    """Refined grid minimization of gamma over the feasible region, each
    round scanning every grid cell in gamma order (a stable sort, so ties
    go to the smaller row-major index) until one is feasible.

    ``bounds`` is ((b_min, b_max), (p_min, p_max)); refinement windows
    are clipped back into it.  Refining stops once the grid spacing
    bounds the gamma error below the requested relative tolerance."""
    feas_floor = B * (1.0 - 1e-12)
    (b_min, b_max), (p_min, p_max) = bounds

    def feasible(b, bp):
        return search(alpha, b, bp)[0] >= feas_floor

    best = None  # (gamma, beta, beta_prime)
    if warm is not None and b_min <= warm[0] <= b_max and p_min <= warm[1] <= p_max:
        if feasible(*warm):
            best = (d * warm[0] + (t - 1) * warm[1], warm[0], warm[1])

    b_lo, b_hi = b_min, b_max
    p_lo, p_hi = p_min, p_max
    pts = _GRID_POINTS
    for round_no in range(_MAX_REFINEMENTS + 1):
        bs = [b_lo + (b_hi - b_lo) * i / (pts - 1) for i in range(pts)]
        if t > 1 and p_hi > p_lo:
            ps = [p_lo + (p_hi - p_lo) * i / (pts - 1) for i in range(pts)]
        elif t > 1 and p_hi > 0:
            ps = [p_hi]
        else:
            ps = [p_lo]
        cands = sorted(
            ((d * b + (t - 1) * bp, b, bp) for b in bs for bp in ps),
            key=lambda c: c[0],
        )
        found = None
        for gamma, b, bp in cands:
            if best is not None and gamma >= best[0]:
                break
            if feasible(b, bp):
                found = (gamma, b, bp)
                break
        if found is None and best is None:
            return None  # window holds nothing feasible
        if found is not None:
            best = found
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


def _oracle_check_among_live(p, adv):
    if adv.kind is AdversaryKind.SELFISH and adv.among_live > p.d:
        raise ParameterError(f"selfish live count {adv.among_live} exceeds d={p.d}")
    if adv.kind is AdversaryKind.POLLUTING and 2 * adv.among_live > p.d:
        raise ParameterError(
            f"polluting live count {adv.among_live} needs 2*count <= d={p.d}"
        )


def oracle_msr_selfish_bounds(p, adv):
    """(beta_exact, beta_min, beta_max, beta'_min, beta'_max, applies)."""
    if adv.kind is not AdversaryKind.SELFISH:
        raise ParameterError("profile kind must be selfish")
    _oracle_check_among_live(p, adv)
    lmax = adv.per_group_max if adv.per_group_max is not None else 0
    if lmax > p.t - 1:
        raise ParameterError(f"per-group selfish count cannot exceed t-1={p.t - 1}")
    unit = p.unit
    d_eff = p.d - adv.among_live

    lo_denom = d_eff - p.k + p.t
    hi_denom = d_eff - p.k + p.t - lmax
    if lo_denom <= 0 or hi_denom <= 0:
        raise InfeasibleError(
            "no feasible download bandwidth: effective fan-in too small"
        )
    beta_min = unit / lo_denom
    beta_max = unit / hi_denom

    collab_share = p.t - lmax - 1
    if collab_share <= 0 or p.t == 1:
        raise InfeasibleError(
            "no collaboration bandwidth is defined when every peer may be selfish"
        )
    bp_min = unit * collab_share / (hi_denom * (p.t - 1))
    bp_max = unit * (p.t - 1) / (lo_denom * collab_share)

    beta_exact = None
    applies = False
    if adv.per_group is not None and (p.k + adv.total) % p.t == 0:
        g = (p.k + adv.total) // p.t
        if len(adv.per_group) == g:
            applies = True
            last = adv.per_group[g - 1]
            exact_denom = d_eff - p.k + (p.t - last)
            if exact_denom <= 0:
                raise InfeasibleError("exact bandwidth denominator nonpositive")
            beta_exact = unit / exact_denom
    return beta_exact, beta_min, beta_max, bp_min, bp_max, applies


def oracle_characteristic_box(p, adversary=None):
    """((beta_lo, beta_hi), (beta'_lo, beta'_hi)) between the minimum-
    bandwidth point and the minimum-storage window."""
    _, mbr_beta, mbr_bp = mbr_point(p)
    if adversary is None or adversary.total == 0 and adversary.among_live == 0:
        _, hi_beta, hi_bp = msr_point(p)
    elif adversary.kind is AdversaryKind.SELFISH:
        bounds = oracle_msr_selfish_bounds(p, adversary)
        hi_beta, hi_bp = bounds[2], bounds[4]
    else:
        d_eff = p.d - 2 * adversary.among_live
        spread = 2 * (adversary.per_group_max or 0)
        denom_hi = d_eff - p.k + p.t - spread
        collab = p.t - spread - 1
        if denom_hi <= 0 or collab <= 0 or d_eff - p.k + p.t <= 0:
            raise InfeasibleError(
                "no characteristic bandwidth window under this pollution level"
            )
        hi_beta = p.unit / denom_hi
        hi_bp = p.unit * (p.t - 1) / ((d_eff - p.k + p.t) * collab)
    if p.t == 1:
        return (mbr_beta, max(hi_beta, mbr_beta)), (F(0), F(0))
    return (mbr_beta, max(hi_beta, mbr_beta)), (mbr_bp, max(hi_bp, mbr_bp))
