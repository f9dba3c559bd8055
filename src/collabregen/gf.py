"""Exact arithmetic over binary extension fields GF(2^m).

Elements are polynomial-basis bit vectors reduced modulo a fixed primitive
polynomial per field size, so bit patterns are reproducible across runs.
Below the element API, values are ints and a product is one lookup in the
field's log/exp tables: ``dot`` is the one dot-product kernel of encoding,
column application and matrix products; ``_decode_rows`` is the one
decode kernel of every read, row by row: one O(N^2) Newton
interpolation, then Gao's Euclid steps only when the interpolant has
degree kappa or more (with exactly kappa points it never has, and a row
already below kappa is the message, returned with no Euclid step; the
master polynomial g0 is built only for a row that needs one); the first
row beyond the radius raises DecodeAmbiguityError, the one such signal.
``_newton`` (divided differences) is the one interpolation kernel of
reads and repairs: a decode expands its Newton form into coefficients,
and a repair from exactly kappa symbols, which needs only the row's
values at the newcomers' points, evaluates it there by ``_newton_at``
(Horner's rule, O(N) lookups per target) with no expansion.
Includes dense matrices over a field (Gaussian elimination solve) and
Reed-Solomon codes whose ``rs_decode`` wraps the kernel: joint
erasure/error decoding, O(n^2) field operations per word, certified
against the distance bound n_s + 2*n_b <= n - kappa.

Everything here is deterministic; fields and elements are immutable.
There are two pieces of mutable state: ``field`` keeps one field per m,
and each field a table of its elements, at most 2^m entries, both filled
on first use.  Racing first calls of ``field(m)`` all get the field stored
first, and an element entry depends only on its value, so fields,
elements and codes stay freely shareable across threads: racing threads
can at worst rebuild an entry, which can cost speed, never correctness.
"""

from __future__ import annotations

from dataclasses import FrozenInstanceError, dataclass
from functools import cached_property
from typing import Iterable, Optional, Sequence

# One primitive polynomial per supported m; x is a generator of the
# multiplicative group for each of these.
PRIMITIVE_POLYNOMIALS: dict[int, int] = {
    2: 0b111,              # x^2 + x + 1
    3: 0b1011,             # x^3 + x + 1
    4: 0b10011,            # x^4 + x + 1
    5: 0b100101,           # x^5 + x^2 + 1
    6: 0b1000011,          # x^6 + x + 1
    7: 0b10001001,         # x^7 + x^3 + 1
    8: 0x11D,              # x^8 + x^4 + x^3 + x^2 + 1
    9: 0x211,              # x^9 + x^4 + 1
    10: 0x409,             # x^10 + x^3 + 1
    11: 0x805,             # x^11 + x^2 + 1
    12: 0x1053,            # x^12 + x^6 + x^4 + x + 1
    13: 0x201B,            # x^13 + x^4 + x^3 + x + 1
    14: 0x4443,            # x^14 + x^10 + x^6 + x + 1
    15: 0x8003,            # x^15 + x + 1
    16: 0x1100B,           # x^16 + x^12 + x^3 + x + 1
}

class FieldMismatchError(ValueError):
    """Operands belong to different fields."""


class SingularMatrixError(ArithmeticError):
    """Linear solve hit a singular system."""


class DecodeError(Exception):
    """Base class for Reed-Solomon decoding failures."""


class InsufficientSymbolsError(DecodeError):
    """Fewer symbols available than the code dimension."""


class DecodeAmbiguityError(DecodeError):
    """No candidate message is certified within the distance bound."""


_FIELD_CACHE: dict[int, "GF"] = {}


class GF:
    """The field GF(2^m) with log/exp tables; one shared instance per m."""

    __slots__ = ("m", "order", "poly", "_exp", "_log", "_elements")

    def __init__(self, m: int):
        if type(m) is not int or not 2 <= m <= 16:  # a bool or 8.0 is no exponent
            raise ValueError(f"field exponent m={m!r} outside supported range, the ints 2..16")
        self.m = m
        self.order = 1 << m
        self.poly = PRIMITIVE_POLYNOMIALS[m]
        size = self.order - 1
        exp = [0] * (2 * size)
        log = [0] * self.order
        x = 1
        for i in range(size):
            exp[i] = x
            exp[i + size] = x
            log[x] = i
            x <<= 1
            if x & self.order:
                x ^= self.poly
        self._exp = exp
        self._log = log
        # FieldElement's table: entry v is the one element of value v
        self._elements: list[Optional[FieldElement]] = [None] * self.order

    def __repr__(self) -> str:
        return f"GF(2^{self.m})"

    def __reduce__(self):
        # a copy or an unpickled field is the shared instance
        return (field, (self.m,))

    # --- int-level arithmetic (values in 0..2^m-1) ---

    def mul(self, a: int, b: int) -> int:
        if a == 0 or b == 0:
            return 0
        return self._exp[self._log[a] + self._log[b]]

    def inv(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError("0 has no multiplicative inverse")
        return self._exp[self.order - 1 - self._log[a]]

    def div(self, a: int, b: int) -> int:
        if b == 0:
            raise ZeroDivisionError("division by field zero")
        if a == 0:
            return 0
        return self._exp[(self._log[a] - self._log[b]) % (self.order - 1)]

    def pow(self, a: int, e: int) -> int:
        if a == 0:
            if e == 0:
                return 1
            if e < 0:
                raise ZeroDivisionError("0 cannot be raised to a negative power")
            return 0
        return self._exp[(self._log[a] * e) % (self.order - 1)]

    # --- element helpers ---

    def element(self, value: int) -> "FieldElement":
        return FieldElement(value, self)

    @property
    def zero(self) -> "FieldElement":
        return FieldElement(0, self)

    @property
    def one(self) -> "FieldElement":
        return FieldElement(1, self)

    @property
    def generator(self) -> "FieldElement":
        """The class of x, a multiplicative generator for our polynomials."""
        return FieldElement(2, self)

    def elements(self) -> Iterable["FieldElement"]:
        return (FieldElement(v, self) for v in range(self.order))


def field(m: int) -> GF:
    """Shared GF(2^m) instance for the given int exponent (``GF`` rejects others)."""
    f = _FIELD_CACHE.get(m) if type(m) is int else None
    if f is None:
        f = _FIELD_CACHE.setdefault(m, GF(m))
    return f


def dot(f: GF, a: Iterable[int], b: Iterable[int]) -> int:
    """sum_i a_i * b_i over f: one exp[log a + log b] lookup per nonzero
    term (the exp table is doubled, so a sum of two logs needs no modulo)."""
    exp, log = f._exp, f._log
    acc = 0
    for x, y in zip(a, b):
        if x and y:
            acc ^= exp[log[x] + log[y]]
    return acc


class FieldElement:
    """A value of GF(2^m), tagged with its field.

    Elements are interned: ``FieldElement(v, f)`` returns the entry of
    f's element table, built on first use, so equal elements of one
    field are the same object, and copies and unpickles are too.
    Equality and hashing still go by (value, field), so two threads
    that race to build one entry get equal, if not identical, elements.
    """

    __slots__ = ("value", "field")

    def __new__(cls, value: int, field: GF) -> "FieldElement":
        if type(value) is not int:
            raise TypeError(f"element value must be an int, got {type(value).__name__}")
        # checked before the lookup: table[-1] would be the top element
        if not 0 <= value < field.order:
            raise ValueError(f"value {value} outside GF(2^{field.m})")
        table = field._elements
        element = table[value]
        if element is None:
            element = object.__new__(cls)
            object.__setattr__(element, "value", value)
            object.__setattr__(element, "field", field)
            table[value] = element
        return element

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, FieldElement):
            return NotImplemented
        return self.value == other.value and self.field is other.field

    def __hash__(self) -> int:
        return hash((self.value, self.field))

    def __setattr__(self, name: str, value: object) -> None:
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return (FieldElement, (self.value, self.field))

    def _check(self, other: "FieldElement") -> None:
        if not isinstance(other, FieldElement):
            raise TypeError(f"expected FieldElement, got {type(other).__name__}")
        if other.field is not self.field:
            raise FieldMismatchError(
                f"mixed fields GF(2^{self.field.m}) and GF(2^{other.field.m})"
            )

    def __add__(self, other: "FieldElement") -> "FieldElement":
        self._check(other)
        return FieldElement(self.value ^ other.value, self.field)

    __sub__ = __add__  # characteristic 2

    def __mul__(self, other: "FieldElement") -> "FieldElement":
        self._check(other)
        return FieldElement(self.field.mul(self.value, other.value), self.field)

    def __truediv__(self, other: "FieldElement") -> "FieldElement":
        self._check(other)
        return FieldElement(self.field.div(self.value, other.value), self.field)

    def __pow__(self, e: int) -> "FieldElement":
        return FieldElement(self.field.pow(self.value, e), self.field)

    def inverse(self) -> "FieldElement":
        return FieldElement(self.field.inv(self.value), self.field)

    def __bool__(self) -> bool:
        return self.value != 0

    def __repr__(self) -> str:
        return f"GF(2^{self.field.m}):{self.value}"


def _elements(f: GF, values: Iterable[int]) -> tuple[FieldElement, ...]:
    """The int ``values``, each in 0..2^m-1, as elements of f: the entries
    of its table of interned elements, each built on first use."""
    table = f._elements
    return tuple([e if (e := table[v]) is not None else FieldElement(v, f) for v in values])


class FieldMatrix:
    """Dense row-major matrix over a single GF(2^m)."""

    __slots__ = ("field", "rows", "cols", "_data")

    def __init__(self, field_: GF, rows: int, cols: int, data: Sequence[int]):
        if type(rows) is not int or type(cols) is not int:
            raise ValueError(f"rows={rows!r} and cols={cols!r} must be ints")
        if rows <= 0 or cols <= 0:
            raise ValueError("matrix dimensions must be positive")
        if len(data) != rows * cols:
            raise ValueError("entry count does not match dimensions")
        for v in data:
            if type(v) is not int:
                raise TypeError(f"entry {v!r} must be an int, got {type(v).__name__}")
            if not 0 <= v < field_.order:
                raise ValueError(f"entry {v} outside GF(2^{field_.m})")
        self.field = field_
        self.rows = rows
        self.cols = cols
        self._data = list(data)

    # --- construction ---

    @classmethod
    def from_rows(cls, field_: GF, rows: Sequence[Sequence[FieldElement | int]]) -> "FieldMatrix":
        flat: list[int] = []
        width = len(rows[0]) if rows else 0  # no rows: the constructor's shape error
        for row in rows:
            if len(row) != width:
                raise ValueError("ragged rows")
            for x in row:
                if isinstance(x, FieldElement):
                    if x.field is not field_:
                        raise FieldMismatchError("entry from a different field")
                    x = x.value
                flat.append(x)
        return cls(field_, len(rows), width, flat)

    # --- access ---

    def int_rows(self) -> list[list[int]]:
        c = self.cols
        return [self._data[i * c:(i + 1) * c] for i in range(self.rows)]

    def row(self, i: int) -> tuple[FieldElement, ...]:
        if not 0 <= i < self.rows:
            raise IndexError(f"row {i} outside 0..{self.rows - 1}")
        c = self.cols
        return _elements(self.field, self._data[i * c:(i + 1) * c])

    def column(self, j: int) -> tuple[FieldElement, ...]:
        if not 0 <= j < self.cols:
            raise IndexError(f"column {j} outside 0..{self.cols - 1}")
        return _elements(self.field, [self._data[i * self.cols + j] for i in range(self.rows)])

    def transpose(self) -> "FieldMatrix":
        data = [self._data[i * self.cols + j] for j in range(self.cols) for i in range(self.rows)]
        return FieldMatrix(self.field, self.cols, self.rows, data)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, FieldMatrix):
            return NotImplemented
        return (
            self.field is other.field
            and self.rows == other.rows
            and self.cols == other.cols
            and self._data == other._data
        )

    def __repr__(self) -> str:
        return f"FieldMatrix(GF(2^{self.field.m}), {self.rows}x{self.cols})"

    # --- arithmetic ---

    def __matmul__(self, other: "FieldMatrix") -> "FieldMatrix":
        if other.field is not self.field:
            raise FieldMismatchError("matrix product across fields")
        if self.cols != other.rows:
            raise ValueError("inner dimensions do not match")
        f = self.field
        a, b = self._data, other._data
        n, k, m = self.rows, self.cols, other.cols
        bcols = [b[j::m] for j in range(m)]
        out = [dot(f, a[i * k:(i + 1) * k], bcol) for i in range(n) for bcol in bcols]
        return FieldMatrix(f, n, m, out)

    def solve(self, rhs: "FieldMatrix") -> "FieldMatrix":
        """Solve self @ X = rhs by Gauss-Jordan with first-nonzero pivoting."""
        if self.rows != self.cols:
            raise ValueError("solve requires a square matrix")
        if rhs.field is not self.field:
            raise FieldMismatchError("right-hand side from a different field")
        if rhs.rows != self.rows:
            raise ValueError("right-hand side row count does not match")
        f = self.field
        exp, log, size = f._exp, f._log, f.order - 1
        n, w = self.rows, rhs.cols
        aug = [
            self._data[i * n:(i + 1) * n] + rhs._data[i * w:(i + 1) * w]
            for i in range(n)
        ]
        for col in range(n):
            pivot = next((r for r in range(col, n) if aug[r][col]), None)
            if pivot is None:
                raise SingularMatrixError(f"singular at column {col}")
            if pivot != col:
                aug[col], aug[pivot] = aug[pivot], aug[col]
            scale = size - log[aug[col][col]]  # log of the pivot's inverse
            prow = aug[col] = [exp[scale + log[v]] if v else 0 for v in aug[col]]
            for r in range(n):
                if r != col and aug[r][col]:
                    lf = log[aug[r][col]]
                    aug[r] = [v ^ exp[lf + log[pv]] if pv else v for v, pv in zip(aug[r], prow)]
        data = [aug[i][n + j] for i in range(n) for j in range(w)]
        return FieldMatrix(f, n, w, data)


# --- Reed-Solomon codes ---

ERASED: Optional[FieldElement] = None  # marker accepted in received sequences


@dataclass(frozen=True)
class RsCode:
    """An (n, kappa) Reed-Solomon code given by distinct evaluation points.

    Codeword symbol i is the message polynomial evaluated at point i; the
    generator matrix is the kappa x n Vandermonde matrix of the points, so
    any kappa columns are invertible.  ``point_values``, built with the
    code, holds the points as ints, one per position.
    """

    field: GF
    n: int
    kappa: int
    evaluation_points: tuple[FieldElement, ...]

    def __post_init__(self):
        if type(self.n) is not int or type(self.kappa) is not int:
            raise ValueError(f"n={self.n!r} and kappa={self.kappa!r} must be ints")
        if not 0 < self.kappa < self.n:
            raise ValueError("need 0 < kappa < n")
        if self.n > self.field.order:
            raise ValueError("code length exceeds field size")
        if len(self.evaluation_points) != self.n:
            raise ValueError("need exactly n evaluation points")
        values = tuple(p.value for p in self.evaluation_points)
        if len(set(values)) != self.n:
            raise ValueError("evaluation points must be distinct")
        for p in self.evaluation_points:
            if p.field is not self.field:
                raise FieldMismatchError("evaluation point from a different field")
        object.__setattr__(self, "point_values", values)

    @classmethod
    def with_power_points(cls, field_: GF, n: int, kappa: int, first_power: int = 0) -> "RsCode":
        """Evaluation points w^first_power, w^(first_power+1), ... for generator w."""
        if type(n) is not int or type(first_power) is not int:
            raise ValueError(f"n={n!r} and first_power={first_power!r} must be ints")
        if n > field_.order - 1:
            raise ValueError("power points require n <= 2^m - 1")
        w = field_.generator
        points = tuple(w ** (first_power + i) for i in range(n))
        return cls(field_, n, kappa, points)

    def generator_matrix(self) -> FieldMatrix:
        """Entry (j, i) is x_i^j, by the rule of ``column_values``."""
        return FieldMatrix.from_rows(self.field, list(zip(*self.column_values)))

    @cached_property
    def column_values(self) -> tuple[tuple[int, ...], ...]:
        """The generator columns (1, x, ..., x^(kappa-1)) as ints, one per
        point of ``point_values``, built once per code: x^j is
        exp[log[x] * j % (2^m - 1)], and x = 0 gives (1, 0, ..., 0)."""
        exp, log, size = self.field._exp, self.field._log, self.field.order - 1
        powers = range(1, self.kappa)
        return tuple((1, *(exp[log[x] * j % size] if x else 0 for j in powers)) for x in self.point_values)

    @cached_property
    def _columns(self) -> tuple[tuple[FieldElement, ...], ...]:
        return tuple(_elements(self.field, c) for c in self.column_values)

    def column(self, position: int) -> tuple[FieldElement, ...]:
        """Column of the generator matrix at a 0-based codeword position."""
        return self._columns[position]

    def encode(self, message: Sequence[FieldElement]) -> tuple[FieldElement, ...]:
        if len(message) != self.kappa:
            raise ValueError(f"message must have {self.kappa} symbols")
        f = self.field
        msg = [m.value for m in message]
        return _elements(f, [dot(f, msg, col) for col in self.column_values])


def rs_decode(
    code: RsCode,
    received: Iterable[tuple[int, Optional[FieldElement]]],
) -> tuple[FieldElement, ...]:
    """Decode erasures and errors with Gao's algorithm.

    ``received`` lists (position, symbol) pairs; a symbol of ``ERASED``
    (None) or an absent position counts as an erasure.  Before any
    decode, a position that is not an int (a bool included) in 0..n-1,
    or repeats (an ERASED entry included), raises ValueError; a symbol
    that is neither a FieldElement nor ERASED raises TypeError, and one
    of another field FieldMismatchError.  The N available symbols form an
    (N, kappa) Reed-Solomon code on their points, which Gao's algorithm
    (Gao 2003, "A new algorithm for decoding Reed-Solomon codes") decodes
    up to (N - kappa)/2 errors in O(N^2) field operations: interpolate the
    received word, run the extended Euclidean algorithm on it and the
    vanishing polynomial of the points until the remainder has degree
    below (N + kappa)/2, and divide the remainder by its cofactor.
    Every result it returns is certified: its erasure/error
    counts satisfy n_s + 2*n_b <= n - kappa (see ``_gao``), which makes
    it the unique codeword in that radius.  When no codeword is that
    close ``_gao`` raises DecodeAmbiguityError, so a corruption beyond
    the bound is flagged rather than silently decoded.  When the
    interpolant already has degree below kappa, as it does from exactly
    kappa symbols, Euclid takes no step: the interpolant is the message,
    certified with no errors, and is returned without Gao.
    """
    f, n = code.field, code.n
    seen: dict[int, Optional[int]] = {}  # an ERASED position holds None
    for pos, sym in received:
        if type(pos) is not int or not 0 <= pos < n:
            raise ValueError(f"position {pos!r} is not an int in 0..{n - 1}")
        if sym is not None:
            if not isinstance(sym, FieldElement):
                raise TypeError(f"symbol {sym!r} is neither a FieldElement nor ERASED")
            if sym.field is not f:
                raise FieldMismatchError("received symbol from a different field")
            sym = sym.value
        if pos in seen:
            raise ValueError(f"duplicate position {pos}")
        seen[pos] = sym
    if None in seen.values():
        seen = {pos: v for pos, v in seen.items() if v is not None}
    kappa = code.kappa
    if len(seen) < kappa:
        raise InsufficientSymbolsError(
            f"{len(seen)} symbols available, need at least {kappa}"
        )
    at = code.point_values
    (msg,) = _decode_rows(f, [at[pos] for pos in seen], [list(seen.values())], kappa)
    return _elements(f, msg)


def _decode_rows(
    f: GF, points: list[int], rows: Sequence[Sequence[int]], kappa: int
) -> list[list[int]]:
    """Each row of values at the N >= kappa distinct ``points`` decoded to
    its kappa message coefficients, as ints, one row at a time, each
    interpolated by ``_newton``.  A row whose Newton coefficients
    d_kappa..d_{N-1} are all zero (always, with exactly kappa points) has
    an interpolant of degree below kappa that agrees with every value: it
    is the message, on which Euclid would take no step, and is expanded
    by ``_expand`` with no Gao.  Any other row goes through Gao's Euclid
    steps on the master polynomial g0, built for the first such row.  The
    first row with no message of degree < kappa within (N - kappa)/2
    errors raises DecodeAmbiguityError, and the rows after it are not
    decoded."""
    g0 = None
    msgs = []
    for row in rows:
        d = _newton(f, points, row)
        if any(d[kappa:]):
            if g0 is None:
                g0 = _expand(f, points, [0] * len(points) + [1])
            msg = _gao(f, g0, _expand(f, points, d), kappa)
        else:
            del d[kappa:]
            msg = _expand(f, points, d)
        if len(msg) < kappa:
            msg += [0] * (kappa - len(msg))
        msgs.append(msg)
    return msgs


# Polynomials below are int coefficient lists over one field, lowest
# degree first, with no trailing zeros (the zero polynomial is []).
# Products are exp[log a + log b] lookups guarded against a zero factor,
# whose log entry is a placeholder.


def _newton(f: GF, points: list[int], row: Sequence[int]) -> list[int]:
    """The Newton coefficients d of the interpolant, of degree < N, of one
    row of values at the N distinct ``points``, in O(N^2) table lookups:
    the divided differences d_i <- (d_i - d_{i-1}) / (a_i - a_{i-j}), for
    j = 1..N-1 and i = N-1 down to j, so that the interpolant is
    d_0 + (x - a_0)(d_1 + (x - a_1)(d_2 + ...)).  ``_expand`` expands d
    into coefficients and ``_newton_at`` evaluates it."""
    exp, log, n = f._exp, f._log, len(points)
    d = list(row)
    for j in range(1, n):
        for i in range(n - 1, j - 1, -1):
            x = d[i] ^ d[i - 1]  # a log difference < 0 wraps in the doubled exp
            d[i] = exp[log[x] - log[points[i] ^ points[i - j]]] if x else 0
    return d


def _newton_at(f: GF, points: list[int], d: list[int], targets: Iterable[int]) -> list[int]:
    """The Newton form d on ``points`` (see ``_newton``) at each target x,
    by Horner's rule p <- p * (x - a_k) + d_k for k = N-2..0: N - 1
    lookups per target, exact at any x, one of the points included."""
    exp, log = f._exp, f._log
    steps = list(zip(reversed(points[:-1]), reversed(d[:-1])))
    out = []
    for x in targets:
        p = d[-1]
        for a, c in steps:
            p = exp[log[p] + log[x ^ a]] ^ c if p and x != a else c
        out.append(p)
    return out


def _expand(f: GF, points: list[int], p: list[int]) -> list[int]:
    """Newton coefficients p on ``points`` expanded in place, trimmed, by
    p <- p * (x - a_k) + c_k for k = len(p)-2..0 (a shift at a_k = 0);
    (0, ..., 0, 1) of length N + 1 gives g0 = prod_i (x - a_i)."""
    exp, log = f._exp, f._log
    top = len(p) - 1
    for k in range(top - 1, -1, -1):  # p[k + 1:] is p so far, p[k] is c_k
        if a := points[k]:
            la = log[a]
            for i in range(k, top):
                if h := p[i + 1]:
                    p[i] ^= exp[la + log[h]]
    while p and not p[-1]:
        p.pop()
    return p


def _gao(f: GF, g0: list[int], g1: list[int], kappa: int) -> list[int]:
    """Gao's decoder on the master polynomial g0 of N points and the
    interpolant g1 of a received word: the message polynomial within
    (N - kappa)/2 errors of the word; DecodeAmbiguityError when there is none."""
    # partial extended Euclid: r = u*g0 + v*g1, until deg r < (N + kappa)/2.
    # The message needs no error recount: deg v1 = N - deg r0 <= (N - kappa)/2
    # when Euclid stops, and r1 = v1*g1 at every point, so msg = r1/v1 can
    # disagree with the word only at roots of v1, at most (N - kappa)/2 of
    # them; that is n_s + 2*n_b <= n - kappa.
    r0, r1, v0, v1 = g0, g1, [], [1]
    while 2 * (len(r1) - 1) >= len(g0) - 1 + kappa:
        q, rem = _poly_divmod(f, r0, r1)
        # deg q >= 1 as deg r0 > deg r1, and deg v1 > deg v0 holds from
        # v0 = 0, v1 = 1 on, so v0 + q*v1 keeps the lead of q*v1: no trim
        v = _poly_mul(f, q, v1)
        for i, c in enumerate(v0):
            v[i] ^= c
        r0, r1, v0, v1 = r1, rem, v1, v
    msg, rem = _poly_divmod(f, r1, v1)
    if rem or len(msg) > kappa:
        raise DecodeAmbiguityError(f"no codeword within distance {(len(g0) - 1 - kappa) // 2}")
    return msg


def _poly_mul(f: GF, a: list[int], b: list[int]) -> list[int]:
    """Product of two nonzero polynomials."""
    exp, log = f._exp, f._log
    out = [0] * (len(a) + len(b) - 1)
    for i, c in enumerate(a):
        if c:
            lc = log[c]
            for j, d in enumerate(b):
                if d:
                    out[i + j] ^= exp[lc + log[d]]
    return out


def _poly_divmod(f: GF, a: list[int], b: list[int]) -> tuple[list[int], list[int]]:
    """Quotient and remainder of a by the nonzero b."""
    exp, log, size = f._exp, f._log, f.order - 1
    rem = a[:]
    db = len(b) - 1
    if len(rem) <= db:
        return [], rem
    quot = [0] * (len(rem) - db)
    llead = log[b[-1]]
    for i in range(len(rem) - 1, db - 1, -1):
        c = rem[i]
        if c:
            lq = (log[c] - llead) % size
            quot[i - db] = exp[lq]
            for j, d in enumerate(b, i - db):
                if d:
                    rem[j] ^= exp[lq + log[d]]
    rem = rem[:db]
    while rem and not rem[-1]:
        rem.pop()
    return quot, rem
