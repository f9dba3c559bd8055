"""Brute-force reference implementations used to check the fast code.

These deliberately share nothing with the package internals: plain
enumeration of collector partitions and adversary placements, with the
cut sum evaluated termwise; a prefix DP over group sizes for free
partitions with no budget, reaching sizes the enumeration cannot, and
the earlier free-partition scan, whose floats the current one must
match bit for bit; exhaustive-subset Reed-Solomon decoding and object
collection, built only on the public field and matrix API; and contact
selection as two branches over a behavior map that may omit honest
nodes.
The decoders cost C(N, kappa) solves, so keep them to small codes.  The
grid optimizer's oracle scans every cell of each refinement round in
gamma order; it shares only the grid-size constants with the package.
The minimum-storage windows are the earlier per-kind code, written out
once for the selfish bounds and once, with the factor 2 inlined, for
the polluting window; they use only public names of ``capacity``.
"""

from fractions import Fraction as F
from itertools import combinations

from collabregen.capacity import (
    AdversaryKind,
    InfeasibleError,
    ParameterError,
    mbr_point,
    msr_point,
)
from collabregen.exactcode import AMBIGUOUS, Behavior, ObjectMatrix, RepairPolicy
from collabregen.tradeoff import _GRID_POINTS, _MAX_REFINEMENTS, _MIN_REFINEMENTS
from collabregen.gf import (
    DecodeAmbiguityError,
    FieldElement,
    FieldMatrix,
    InsufficientSymbolsError,
    SingularMatrixError,
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


def oracle_collect_robust(blocks, max_polluters):
    """Subset consensus: the unique object solved from some kappa blocks
    that disagrees with at most ``max_polluters`` blocks, else AMBIGUOUS.
    A subset of dependent columns solves for nothing and is skipped."""
    kappa = len(blocks[0].column)
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
