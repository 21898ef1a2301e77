"""Exact integer linear algebra on arbitrary-precision integers.

Everything here is fraction-free: ranks and determinants via Bareiss
elimination, lattice bases via row Hermite reduction, Smith normal form with
tracked unimodular transforms.  No floating point anywhere.
"""

from __future__ import annotations

import itertools
from bisect import insort
from dataclasses import dataclass, field
from math import comb, gcd
from operator import index
from typing import Iterable, Iterator, Sequence

from .errors import (
    EnumerationCapExceeded,
    IndexOutOfRange,
    LengthMismatch,
    MalformedInput,
    SizeMismatch,
)

__all__ = [
    "DEFAULT_ENUMERATION_CAP",
    "IntegerMatrix",
    "SmithDecomposition",
    "rational_rank",
    "determinant",
    "minor",
    "nonzero_minors",
    "smith_normal_form",
    "lattice_basis",
    "IncrementalRank",
]

DEFAULT_ENUMERATION_CAP = 10**7


@dataclass(frozen=True)
class IntegerMatrix:
    """Immutable integer matrix, row-major.  Empty shapes are legal."""

    rows: int
    cols: int
    entries: tuple[int, ...]

    def __post_init__(self):
        if self.rows < 0 or self.cols < 0:
            raise SizeMismatch(f"negative shape {self.rows}x{self.cols}")
        try:
            entries = tuple(map(index, self.entries))
        except TypeError:
            raise MalformedInput("matrix entries must be integers") from None
        if len(entries) != self.rows * self.cols:
            raise SizeMismatch(
                f"{self.rows}x{self.cols} matrix needs {self.rows * self.cols} "
                f"entries, got {len(entries)}"
            )
        object.__setattr__(self, "entries", entries)

    @classmethod
    def from_rows(cls, rows: Iterable[Sequence[int]], cols: int | None = None) -> "IntegerMatrix":
        rows = [tuple(r) for r in rows]
        if not rows:
            return cls(0, 0 if cols is None else cols, ())
        width = len(rows[0])
        if any(len(r) != width for r in rows):
            raise LengthMismatch("rows of unequal length")
        if cols is not None and width != cols:
            raise LengthMismatch(f"rows have length {width}, expected {cols}")
        return cls(len(rows), width, tuple(x for r in rows for x in r))

    @classmethod
    def identity(cls, n: int) -> "IntegerMatrix":
        return cls(n, n, tuple(1 if i == j else 0 for i in range(n) for j in range(n)))

    @classmethod
    def zeros(cls, rows: int, cols: int) -> "IntegerMatrix":
        return cls(rows, cols, (0,) * (rows * cols))

    @property
    def shape(self) -> tuple[int, int]:
        return (self.rows, self.cols)

    def entry(self, i: int, j: int) -> int:
        if not (0 <= i < self.rows and 0 <= j < self.cols):
            raise IndexOutOfRange(f"entry ({i},{j}) of a {self.rows}x{self.cols} matrix")
        return self.entries[i * self.cols + j]

    def row(self, i: int) -> tuple[int, ...]:
        if not 0 <= i < self.rows:
            raise IndexOutOfRange(f"row {i} of a {self.rows}x{self.cols} matrix")
        return self.entries[i * self.cols : (i + 1) * self.cols]

    def column(self, j: int) -> tuple[int, ...]:
        if not 0 <= j < self.cols:
            raise IndexOutOfRange(f"column {j} of a {self.rows}x{self.cols} matrix")
        return self.entries[j :: self.cols] if self.cols else ()

    def to_rows(self) -> list[list[int]]:
        """Mutable row-of-lists copy for elimination routines."""
        c = self.cols
        return [list(self.entries[i * c : (i + 1) * c]) for i in range(self.rows)]

    def transpose(self) -> "IntegerMatrix":
        return IntegerMatrix(
            self.cols,
            self.rows,
            tuple(self.entries[i * self.cols + j] for j in range(self.cols) for i in range(self.rows)),
        )

    def submatrix(self, row_idx: Sequence[int], col_idx: Sequence[int]) -> "IntegerMatrix":
        for i in row_idx:
            if not 0 <= i < self.rows:
                raise IndexOutOfRange(f"row {i} of a {self.rows}x{self.cols} matrix")
        for j in col_idx:
            if not 0 <= j < self.cols:
                raise IndexOutOfRange(f"column {j} of a {self.rows}x{self.cols} matrix")
        return IntegerMatrix(
            len(row_idx),
            len(col_idx),
            tuple(self.entries[i * self.cols + j] for i in row_idx for j in col_idx),
        )

    def __matmul__(self, other: "IntegerMatrix") -> "IntegerMatrix":
        if self.cols != other.rows:
            raise SizeMismatch(f"cannot multiply {self.shape} by {other.shape}")
        a, b = self.to_rows(), other.to_rows()
        cols = list(zip(*b)) if b else [()] * other.cols
        out = []
        for ra in a:
            if other.cols and self.cols:
                out.append([sum(x * y for x, y in zip(ra, cb)) for cb in cols])
            else:
                out.append([0] * other.cols)
        return IntegerMatrix(self.rows, other.cols, tuple(x for r in out for x in r))

    def __str__(self) -> str:
        if not self.rows or not self.cols:
            return f"<{self.rows}x{self.cols}>"
        return "\n".join(" ".join(str(x) for x in self.row(i)) for i in range(self.rows))


def _xgcd(a: int, b: int) -> tuple[int, int, int]:
    """Returns (g, x, y) with g = gcd(a, b) >= 0 and x*a + y*b = g."""
    x0, x1, y0, y1 = 1, 0, 0, 1
    while b:
        q, a, b = a // b, b, a % b
        x0, x1 = x1, x0 - q * x1
        y0, y1 = y1, y0 - q * y1
    if a < 0:
        return -a, -x0, -y0
    return a, x0, y0


def _bareiss(work: list[list[int]], nrows: int, ncols: int) -> tuple[int, int, int]:
    """Fraction-free elimination with full pivoting, in place.

    Returns (rank, sign, last_pivot).  After step k the remaining block holds
    (k+1)-minors of the permuted input, so the division by the previous pivot
    is exact.  last_pivot is the determinant up to `sign` for square
    nonsingular input; the empty matrix reports pivot 1.
    """
    prev = 1
    sign = 1
    r = 0
    limit = min(nrows, ncols)
    while r < limit:
        pi = pj = -1
        for i in range(r, nrows):
            wi = work[i]
            for j in range(r, ncols):
                if wi[j]:
                    pi, pj = i, j
                    break
            if pi >= 0:
                break
        if pi < 0:
            break
        if pi != r:
            work[r], work[pi] = work[pi], work[r]
            sign = -sign
        if pj != r:
            for row in work:
                row[r], row[pj] = row[pj], row[r]
            sign = -sign
        wr = work[r]
        piv = wr[r]
        for i in range(r + 1, nrows):
            wi = work[i]
            f = wi[r]
            if f:
                for j in range(r + 1, ncols):
                    wi[j] = (piv * wi[j] - f * wr[j]) // prev
                wi[r] = 0
            elif prev != piv:
                for j in range(r + 1, ncols):
                    wi[j] = piv * wi[j] // prev
        prev = piv
        r += 1
    return r, sign, prev


def rational_rank(m: IntegerMatrix) -> int:
    """Rank over the rationals, exactly."""
    return _bareiss(m.to_rows(), m.rows, m.cols)[0]


def determinant(m: IntegerMatrix) -> int:
    """Determinant of a square matrix; the 0x0 determinant is 1."""
    if m.rows != m.cols:
        raise SizeMismatch(f"determinant of a {m.rows}x{m.cols} matrix")
    rank, sign, piv = _bareiss(m.to_rows(), m.rows, m.cols)
    if rank < m.rows:
        return 0
    return sign * piv


def minor(m: IntegerMatrix, row_idx: Sequence[int], col_idx: Sequence[int]) -> int:
    """Determinant of the submatrix on `row_idx` x `col_idx` (0-based).

    Index sets must have equal size; the empty minor is 1.
    """
    rows = tuple(row_idx)
    cols = tuple(col_idx)
    if len(rows) != len(cols):
        raise SizeMismatch(f"minor on {len(rows)} rows and {len(cols)} columns")
    if len(set(rows)) != len(rows) or len(set(cols)) != len(cols):
        raise SizeMismatch("repeated index in minor")
    return determinant(m.submatrix(rows, cols))


def nonzero_minors(
    m: IntegerMatrix,
    size: int,
    modulus: int | None = None,
    cap: int = DEFAULT_ENUMERATION_CAP,
) -> Iterator[tuple[tuple[int, ...], tuple[int, ...]]]:
    """Yields (rows, cols) index pairs whose `size`-minor is nonzero.

    Pairs are emitted in lexicographic order.  With `modulus` p, minors are
    tested nonzero mod p instead.  The total pair count
    C(rows, size) * C(cols, size) is checked against `cap` before any work;
    EnumerationCapExceeded carries the required count.
    """
    if size < 0:
        raise SizeMismatch(f"minor size {size}")
    if modulus is not None and modulus < 2:
        raise SizeMismatch(f"modulus {modulus}")
    required = comb(m.rows, size) * comb(m.cols, size)
    if required > cap:
        raise EnumerationCapExceeded(required, cap, what="minor enumeration")

    def generate():
        width = m.cols
        ent = m.entries
        for crows in itertools.combinations(range(m.rows), size):
            picked = [ent[i * width : (i + 1) * width] for i in crows]
            for ccols in itertools.combinations(range(m.cols), size):
                sub = [[row[j] for j in ccols] for row in picked]
                rk, s, piv = _bareiss(sub, size, size)
                val = s * piv if rk == size else 0
                if modulus is not None:
                    val %= modulus
                if val:
                    yield (crows, ccols)

    return generate()


@dataclass(frozen=True)
class SmithDecomposition:
    """U @ A @ V == diagonal of `divisors`, with U and V unimodular.

    Divisors are positive and each divides the next; their number is the rank.
    """

    u: IntegerMatrix
    v: IntegerMatrix
    divisors: tuple[int, ...]

    def diagonal(self, rows: int, cols: int) -> IntegerMatrix:
        """The full rows x cols diagonal matrix carrying the divisors."""
        d = [[0] * cols for _ in range(rows)]
        for i, x in enumerate(self.divisors):
            d[i][i] = x
        return IntegerMatrix.from_rows(d, cols=cols)


def smith_normal_form(m: IntegerMatrix) -> SmithDecomposition:
    """Smith normal form with tracked transforms.

    Classic pivot-and-clear: move a minimal-magnitude entry to the pivot,
    clear its row and column with gcd transforms, then enforce that the pivot
    divides the remaining block before moving on; that ordering makes the
    divisor chain automatic.  All row ops mirror into U, column ops into V,
    and every op has determinant +-1.
    """
    nrows, ncols = m.rows, m.cols
    d = m.to_rows()
    u = IntegerMatrix.identity(nrows).to_rows()
    v = IntegerMatrix.identity(ncols).to_rows()

    def swap_rows(a, b):
        if a != b:
            d[a], d[b] = d[b], d[a]
            u[a], u[b] = u[b], u[a]

    def swap_cols(a, b):
        if a != b:
            for row in d:
                row[a], row[b] = row[b], row[a]
            for row in v:
                row[a], row[b] = row[b], row[a]

    def combine_rows(t, i):
        # Rows (t, i) -> 2x2 transform putting gcd at d[t][t], 0 at d[i][t].
        a, b = d[t][t], d[i][t]
        if b == 0:
            return
        if a and b % a == 0:
            q = b // a
            d[i] = [x - q * y for x, y in zip(d[i], d[t])]
            u[i] = [x - q * y for x, y in zip(u[i], u[t])]
            return
        g, x, y = _xgcd(a, b)
        p, q = -(b // g), a // g
        d[t], d[i] = (
            [x * r + y * s for r, s in zip(d[t], d[i])],
            [p * r + q * s for r, s in zip(d[t], d[i])],
        )
        u[t], u[i] = (
            [x * r + y * s for r, s in zip(u[t], u[i])],
            [p * r + q * s for r, s in zip(u[t], u[i])],
        )

    def combine_cols(t, j):
        a, b = d[t][t], d[t][j]
        if b == 0:
            return
        if a and b % a == 0:
            q = b // a
            for row in d:
                row[j] -= q * row[t]
            for row in v:
                row[j] -= q * row[t]
            return
        g, x, y = _xgcd(a, b)
        p, q = -(b // g), a // g
        for row in d:
            row[t], row[j] = x * row[t] + y * row[j], p * row[t] + q * row[j]
        for row in v:
            row[t], row[j] = x * row[t] + y * row[j], p * row[t] + q * row[j]

    t = 0
    limit = min(nrows, ncols)
    while t < limit:
        # minimal-magnitude pivot in the remaining block
        best = None
        for i in range(t, nrows):
            di = d[i]
            for j in range(t, ncols):
                x = di[j]
                if x and (best is None or abs(x) < best[0]):
                    best = (abs(x), i, j)
        if best is None:
            break
        swap_rows(t, best[1])
        swap_cols(t, best[2])
        while True:
            for i in range(t + 1, nrows):
                combine_rows(t, i)
            dirty = False
            for j in range(t + 1, ncols):
                if d[t][j]:
                    combine_cols(t, j)
                    dirty = True
            if dirty and any(d[i][t] for i in range(t + 1, nrows)):
                continue
            # pivot must divide the rest of the block for the divisor chain
            piv = d[t][t]
            offender = next(
                (i for i in range(t + 1, nrows) if any(x % piv for x in d[i][t + 1 :])),
                None,
            )
            if offender is None:
                break
            d[t] = [x + y for x, y in zip(d[t], d[offender])]
            u[t] = [x + y for x, y in zip(u[t], u[offender])]
        if d[t][t] < 0:
            d[t] = [-x for x in d[t]]
            u[t] = [-x for x in u[t]]
        t += 1

    divisors = tuple(d[i][i] for i in range(t))
    return SmithDecomposition(
        u=IntegerMatrix.from_rows(u, cols=nrows),
        v=IntegerMatrix.from_rows(v, cols=ncols),
        divisors=divisors,
    )


def lattice_basis(vectors: Iterable[Sequence[int]]) -> tuple[tuple[int, ...], ...]:
    """Canonical basis of the integer lattice spanned by `vectors`.

    Row Hermite reduction: staircase pivots, positive pivot entries, entries
    above each pivot reduced into [0, pivot).  The basis size equals the
    rational rank of the stack.
    """
    rows = [list(v) for v in vectors]
    if not rows:
        return ()
    width = len(rows[0])
    if any(len(r) != width for r in rows):
        raise LengthMismatch("vectors of unequal length")

    r = 0
    for c in range(width):
        p = None
        for i in range(r, len(rows)):
            if rows[i][c]:
                p = i
                break
        if p is None:
            continue
        rows[r], rows[p] = rows[p], rows[r]
        for i in range(r + 1, len(rows)):
            if not rows[i][c]:
                continue
            a, b = rows[r][c], rows[i][c]
            if b % a == 0:
                q = b // a
                rows[i] = [x - q * y for x, y in zip(rows[i], rows[r])]
            else:
                g, x, y = _xgcd(a, b)
                p2, q2 = -(b // g), a // g
                rows[r], rows[i] = (
                    [x * s + y * t for s, t in zip(rows[r], rows[i])],
                    [p2 * s + q2 * t for s, t in zip(rows[r], rows[i])],
                )
        if rows[r][c] < 0:
            rows[r] = [-x for x in rows[r]]
        for i in range(r):
            q = rows[i][c] // rows[r][c]
            if q:
                rows[i] = [x - q * y for x, y in zip(rows[i], rows[r])]
        r += 1
        if r == len(rows):
            break
    return tuple(tuple(row) for row in rows[:r])


class IncrementalRank:
    """Grow a rational row space one vector at a time, exactly.

    Rows are kept primitive (gcd 1, positive pivot) so cross-multiplication
    reductions stay small.  insert() reports whether the vector increased the
    rank.
    """

    def __init__(self, length: int):
        self.length = length
        self._rows: list[tuple[int, list[int]]] = []  # (pivot index, row), sorted

    @property
    def rank(self) -> int:
        return len(self._rows)

    def insert(self, vec: Sequence[int]) -> bool:
        v = list(vec)
        if len(v) != self.length:
            raise LengthMismatch(f"vector of length {len(v)}, expected {self.length}")
        for piv, row in self._rows:
            f = v[piv]
            if f:
                a = row[piv]
                v = [a * x - f * y for x, y in zip(v, row)]
        p = next((j for j, x in enumerate(v) if x), None)
        if p is None:
            return False
        g = gcd(*v)
        if v[p] < 0:
            g = -g
        v = [x // g for x in v]
        insort(self._rows, (p, v), key=lambda pr: pr[0])
        return True
