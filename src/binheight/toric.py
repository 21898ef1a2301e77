"""Toric presentations, Jacobian ideals, and isolated-singularity checks.

A configuration matrix A (columns = semigroup generators) plus a set of
kernel exponent vectors presents a toric ring.  Differentiating the binomials
and reducing modulo the ideal leaves pure monomial data, so rank-sized minors
of the coefficient matrix H generate the Jacobian ideal up to monomial
factors; everything here runs on that combinatorial shadow with exact integer
arithmetic.

The isolated-singularity decision is one exact procedure on the extreme rays
of cone(A).  The quotient by the Jacobian ideal is zero-dimensional exactly
when every face of cone(A) of dimension >= 1 contains a Jacobian generator.
Every such face of the pointed cone contains an extreme ray, and a generator
on a ray lies on every face containing it, so checking the rays suffices.
The facets of cone(A), and from them its extreme rays, come from an exact
integer double description of the dual cone: columns are added one at a
time, and each adjacent pair of rays on opposite sides of the new column is
combined into a primitive normal; `cap` bounds the pairs tried per column.
Nonzero rank-sized minors of H factor as (row basis) x (column basis) of H's
two matroids and every Jacobian generator is a semigroup element, so per ray
the check compares a greedy minimum-weight row basis against a maximum-weight
column basis under a functional that vanishes exactly on the ray.  The
generators span ker(A), so H's column matroid is the dual of A's (Oxley,
Matroid Theory, 2.2.8): its maximum-weight basis is the complement of a
greedy minimum-weight basis of A's columns.  The literal minor enumeration
serves only the generator listing.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from math import gcd
from typing import Sequence

from .binomial import ExponentVector, checked_generators, split_signs
from .errors import (
    EnumerationCapExceeded,
    IndexOutOfRange,
    InternalInvariantViolation,
    InvalidPresentation,
    LengthMismatch,
    NotInKernel,
    ReductionUnavailable,
    UnsupportedConfiguration,
)
from .linalg import (
    DEFAULT_ENUMERATION_CAP,
    IncrementalRank,
    IntegerMatrix,
    minor,
    nonzero_minors,
)

__all__ = [
    "PERFECT_FIELD_CAVEAT",
    "RANK_CONSISTENT_NOTE",
    "ToricConfiguration",
    "ToricIdealPresentation",
    "JacobianIdealReport",
    "IsolatedSingularityReport",
    "binomial_degree",
    "jacobian_entry",
    "jacobian_generators",
    "semigroup_contains",
    "isolated_singularity_by_jacobian",
]

PERFECT_FIELD_CAVEAT = (
    "singular-locus conclusions assume the base field is perfect"
)
RANK_CONSISTENT_NOTE = (
    "generators are rank-consistent with the configuration kernel; "
    "they are not certified to generate the full defining ideal"
)

@dataclass(frozen=True)
class ToricConfiguration:
    """Integer configuration matrix with pairwise distinct columns."""

    matrix: IntegerMatrix
    column_names: tuple[str, ...] | None = None

    def __post_init__(self):
        if len(set(self.columns)) != self.matrix.cols:
            raise InvalidPresentation("configuration columns must be distinct")
        if self.column_names is not None:
            names = tuple(str(s) for s in self.column_names)
            if len(names) != self.matrix.cols:
                raise LengthMismatch(
                    f"{len(names)} names for {self.matrix.cols} columns"
                )
            object.__setattr__(self, "column_names", names)

    @cached_property
    def columns(self) -> tuple[tuple[int, ...], ...]:
        return tuple(self.matrix.column(j) for j in range(self.matrix.cols))

    @cached_property
    def independent_rows(self) -> tuple[int, ...]:
        """Indices of the rows not in the span of the rows before them."""
        inc = IncrementalRank(self.matrix.cols)
        return tuple(
            i for i in range(self.matrix.rows) if inc.insert(self.matrix.row(i))
        )

    @property
    def rank(self) -> int:
        return len(self.independent_rows)

    @cached_property
    def is_nonnegative(self) -> bool:
        return all(x >= 0 for x in self.matrix.entries)

    def name_of(self, j: int) -> str:
        if self.column_names is not None:
            return self.column_names[j]
        return f"y{j + 1}"

    def apply(self, v: Sequence[int]) -> tuple[int, ...]:
        """Matrix-vector product A*v, iterating only the nonzeros of v."""
        if len(v) != self.matrix.cols:
            raise LengthMismatch(
                f"vector of length {len(v)} against {self.matrix.cols} columns"
            )
        out = [0] * self.matrix.rows
        for j, vj in enumerate(v):
            if vj:
                col = self.columns[j]
                for i, c in enumerate(col):
                    if c:
                        out[i] += vj * c
        return tuple(out)


@dataclass(frozen=True)
class ToricIdealPresentation:
    """Kernel vectors presenting the toric ideal of a configuration.

    Construction verifies each generator lies in ker(A) and that the
    generators span the full kernel rationally (a necessary condition for
    generating the ideal; see RANK_CONSISTENT_NOTE).
    """

    config: ToricConfiguration
    generators: tuple[ExponentVector, ...]

    def __post_init__(self):
        n = self.config.matrix.cols
        gens = checked_generators(self.generators, n)
        for k, g in enumerate(gens):
            if any(self.config.apply(g)):
                raise NotInKernel(f"generator {k} is not in the configuration kernel")
        object.__setattr__(self, "generators", gens)
        target = n - self.config.rank
        inc = IncrementalRank(n)
        for g in gens:
            if inc.rank == target:
                break
            inc.insert(g)
        if inc.rank != target:
            raise InvalidPresentation(
                f"generators span rank {inc.rank}, kernel has rank {target}"
            )

    @cached_property
    def height(self) -> int:
        """Rational dimension of the exponent span; equals the kernel rank."""
        return self.config.matrix.cols - self.config.rank

    @cached_property
    def generator_matrix(self) -> IntegerMatrix:
        return IntegerMatrix.from_rows(self.generators, cols=self.config.matrix.cols)

    @cached_property
    def degrees(self) -> tuple[tuple[int, ...], ...]:
        """Semigroup degree A*v_plus of each generator binomial."""
        return tuple(self.config.apply(split_signs(g)[0]) for g in self.generators)


def binomial_degree(p: ToricIdealPresentation, v: Sequence[int]) -> tuple[int, ...]:
    """Degree of the binomial with exponent vector v in the semigroup grading."""
    v = tuple(int(x) for x in v)
    if any(p.config.apply(v)):
        raise NotInKernel("vector is not in the configuration kernel")
    return p.config.apply(split_signs(v)[0])


def jacobian_entry(
    p: ToricIdealPresentation, i: int, j: int
) -> tuple[int, tuple[int, ...] | None]:
    """Entry (i, j) of the Jacobian matrix modulo the toric ideal.

    Returns (coefficient, exponent): coefficient v_ij and the exponent of the
    monomial deg(f_i) - a_j, or (0, None) where the derivative vanishes.
    """
    if not 0 <= i < len(p.generators):
        raise IndexOutOfRange(f"generator {i} of {len(p.generators)}")
    if not 0 <= j < p.config.matrix.cols:
        raise IndexOutOfRange(f"variable {j} of {p.config.matrix.cols}")
    coeff = p.generators[i][j]
    if coeff == 0:
        return (0, None)
    exponent = tuple(d - a for d, a in zip(p.degrees[i], p.config.columns[j]))
    return (coeff, exponent)


@dataclass(frozen=True)
class JacobianIdealReport:
    """Monomial generators of the Jacobian ideal, as semigroup elements."""

    h: int
    generators: tuple[tuple[int, ...], ...]
    reduced: bool


def jacobian_generators(
    p: ToricIdealPresentation,
    modulus: int | None = None,
    reduce: bool = False,
    cap: int = DEFAULT_ENUMERATION_CAP,
) -> JacobianIdealReport:
    """Jacobian ideal generators via rank-sized minors of the exponent matrix.

    For each pair (C, D) of generator and variable index sets of size
    h = kernel rank whose minor of H is nonzero (nonzero mod `modulus` if
    given), the semigroup element sum(deg f_i, i in C) - sum(a_j, j in D) is a
    generator.  Results are deduplicated and sorted; `reduce` additionally
    drops generators divisible by another one, which needs semigroup
    membership and hence a nonnegative configuration.
    """
    h = p.height
    m = p.config.matrix.rows
    degs = p.degrees
    cols = p.config.columns
    found: set[tuple[int, ...]] = set()
    for crows, ccols in nonzero_minors(p.generator_matrix, h, modulus=modulus, cap=cap):
        u = [0] * m
        for i in crows:
            d = degs[i]
            for t in range(m):
                u[t] += d[t]
        for j in ccols:
            c = cols[j]
            for t in range(m):
                u[t] -= c[t]
        found.add(tuple(u))
    generators = tuple(sorted(found))
    if reduce and found:
        try:
            oracle = _SemigroupOracle(p.config)
        except UnsupportedConfiguration as e:
            raise ReductionUnavailable(f"divisibility reduction: {e}") from None
        generators = tuple(
            u
            for u in generators
            if not any(
                w is not u and oracle.contains(tuple(a - b for a, b in zip(u, w)))
                for w in generators
            )
        )
    return JacobianIdealReport(h=h, generators=generators, reduced=reduce)


class _SemigroupOracle:
    """Memoized bounded search for membership in the affine semigroup N*A.

    Requires a nonnegative configuration with no zero column, which bounds the
    multiplicity of every column by a coordinate quotient.
    """

    def __init__(self, config: ToricConfiguration):
        if not config.is_nonnegative:
            raise UnsupportedConfiguration(
                "semigroup membership needs a nonnegative configuration"
            )
        cols = config.columns
        if any(not any(c) for c in cols):
            raise UnsupportedConfiguration(
                "semigroup membership needs columns that are nonzero"
            )
        self.m = config.matrix.rows
        self.cols = cols
        last = [-1] * self.m
        for j, c in enumerate(cols):
            for i, x in enumerate(c):
                if x > 0:
                    last[i] = j
        # coordinates that can no longer change once the search reaches depth j
        self.frozen_at: list[list[int]] = [[] for _ in range(len(cols) + 1)]
        for i, lp in enumerate(last):
            self.frozen_at[lp + 1].append(i)
        self.support = [
            [(i, c) for i, c in enumerate(col) if c > 0] for col in cols
        ]
        self.cache: dict[tuple[int, tuple[int, ...]], bool] = {}

    def contains(self, b: Sequence[int]) -> bool:
        b = tuple(int(x) for x in b)
        if len(b) != self.m:
            raise LengthMismatch(f"vector of length {len(b)}, expected {self.m}")
        if any(x < 0 for x in b):
            return False
        return self._search(b)

    def _search(self, b: tuple[int, ...]) -> bool:
        """Depth-first over the multiplicity of each column in turn, largest first.

        The path is an explicit stack of [column, remainder, multiplicity]
        frames, so the depth is the column count, not the interpreter's
        recursion limit.  Each decided (column, remainder) is memoized.
        """
        stack: list[list] = []
        j = 0
        while True:
            if not any(b):
                ok = True
            elif any(b[i] > 0 for i in self.frozen_at[j]) or j == len(self.cols):
                ok = False
            else:
                ok = self.cache.get((j, b))
            if ok is None:
                stack.append([j, b, min(b[i] // c for i, c in self.support[j])])
            else:
                # a success settles every open frame; a failure settles those
                # that have tried multiplicity 0
                while stack and (ok or stack[-1][2] == 0):
                    fj, fb, _ = stack.pop()
                    self.cache[(fj, fb)] = ok
                if not stack:
                    return ok
                stack[-1][2] -= 1
            j, b, k = stack[-1]
            if k:
                b = tuple(x - k * c for x, c in zip(b, self.cols[j]))
            j += 1


def semigroup_contains(config: ToricConfiguration, b: Sequence[int]) -> bool:
    """Whether b is a nonnegative integer combination of the columns of A."""
    return _SemigroupOracle(config).contains(b)


@dataclass(frozen=True)
class IsolatedSingularityReport:
    """Verdict of the Jacobian-ideal zero-dimensionality test.

    verdict True/False is exact.  A False verdict from the ray decision
    names, in note, the column(s) spanning an extreme ray of cone(A) that
    carries no Jacobian generator.
    """

    verdict: bool
    method: str  # "zero-ideal" | "face-decomposition"
    zero_ideal: bool
    caveat: str
    note: str | None = None


def isolated_singularity_by_jacobian(
    p: ToricIdealPresentation, *, cap: int = DEFAULT_ENUMERATION_CAP
) -> IsolatedSingularityReport:
    """Decide whether the presented ring has (at most) an isolated singularity.

    The quotient by the Jacobian ideal is zero-dimensional iff every extreme
    ray of cone(A) carries a Jacobian generator; the rays come from the facets
    of cone(A), whose double description tries at most `cap` ray pairs per
    column added (see module docstring).  The
    perfect-field caveat applies to every verdict.
    """
    config = p.config
    if not config.is_nonnegative:
        raise UnsupportedConfiguration(
            "isolated-singularity check needs a nonnegative configuration"
        )
    if not p.generators:
        return IsolatedSingularityReport(
            verdict=False,
            method="zero-ideal",
            zero_ideal=True,
            caveat=PERFECT_FIELD_CAVEAT,
            note=(
                "defining ideal is zero: the ring is a polynomial ring, "
                "regular, vacuously isolated"
            ),
        )
    if any(not any(c) for c in config.columns):
        raise UnsupportedConfiguration(
            "isolated-singularity check needs columns that are nonzero"
        )
    bare = _bare_ray(p, cap)
    return IsolatedSingularityReport(
        verdict=bare is None,
        method="face-decomposition",
        zero_ideal=False,
        caveat=PERFECT_FIELD_CAVEAT,
        note=None
        if bare is None
        else (
            "no Jacobian generator lies on the extreme ray spanned by "
            + ", ".join(config.name_of(j) for j in bare)
        ),
    )


def _greedy_basis_weight(
    vectors: Sequence[Sequence[int]], weights: Sequence[int], target: int
) -> int:
    """Total weight of a greedy minimum-weight basis of the vector matroid."""
    if target == 0:
        return 0
    order = sorted(range(len(vectors)), key=lambda i: (weights[i], i))
    inc = IncrementalRank(len(vectors[0]))
    total = 0
    for i in order:
        if inc.insert(vectors[i]):
            total += weights[i]
            if inc.rank == target:
                return total
    raise InternalInvariantViolation(
        f"matroid rank {inc.rank} below requested basis size {target}"
    )


def _facets(
    pcols: Sequence[tuple[int, ...]], r: int, cap: int
) -> dict[tuple[int, ...], frozenset[int]]:
    """Primitive facet normals of a pointed cone spanning Q^r, with their columns.

    Double description (Motzkin et al. 1953; Fukuda and Prodon 1996) of the
    dual cone {w : w.a >= 0 for every column a}, whose extreme rays are the
    facet normals.  It starts from the simplicial cone of the first r
    independent columns, whose rays are cofactor normals, and adds the other
    columns one at a time: rays positive on the new column stay, rays zero on
    it stay and record it, and each positive/negative pair that is adjacent
    (no third ray vanishes on every column both vanish on) is combined into a
    ray that vanishes on it.  `cap` bounds the pairs tried at each step.
    """
    n = len(pcols)
    inc = IncrementalRank(r)
    basis = [j for j in range(n) if inc.rank < r and inc.insert(pcols[j])]
    m = IntegerMatrix.from_rows([pcols[j] for j in basis], cols=r)
    rays: list[tuple[tuple[int, ...], int]] = []  # (normal, zero columns as bits)
    for i, b in enumerate(basis):
        others = [k for k in range(r) if k != i]
        w = [
            (-1) ** (i + k) * minor(m, others, [c for c in range(r) if c != k])
            for k in range(r)
        ]
        if sum(x * y for x, y in zip(w, pcols[b])) < 0:
            w = [-x for x in w]
        rays.append((_primitive(w), sum(1 << basis[k] for k in others)))
    for j in sorted(set(range(n)) - set(basis)):
        a = pcols[j]
        vals = [sum(x * y for x, y in zip(w, a)) for w, _ in rays]
        pos = [p for p, v in enumerate(vals) if v > 0]
        neg = [q for q, v in enumerate(vals) if v < 0]
        if len(pos) * len(neg) > cap:
            raise EnumerationCapExceeded(len(pos) * len(neg), cap, what="facet pairs")
        kept = [
            (w, z | (1 << j) if v == 0 else z)
            for (w, z), v in zip(rays, vals)
            if v >= 0
        ]
        for p in pos:
            for q in neg:
                common = rays[p][1] & rays[q][1]
                if common.bit_count() < r - 2 or any(
                    k != p and k != q and z & common == common
                    for k, (_, z) in enumerate(rays)
                ):
                    continue
                w = [
                    vals[p] * x - vals[q] * y for x, y in zip(rays[q][0], rays[p][0])
                ]
                kept.append((_primitive(w), common | (1 << j)))
        rays = kept
    return {w: frozenset(k for k in range(n) if z >> k & 1) for w, z in rays}


def _primitive(w: Sequence[int]) -> tuple[int, ...]:
    g = gcd(*w)
    return tuple(x // g for x in w)


def _bare_ray(p: ToricIdealPresentation, cap: int) -> tuple[int, ...] | None:
    """First extreme ray of cone(A) without a Jacobian generator, as its columns.

    Returns None when every extreme ray carries one.  Projects the
    configuration onto an independent set of coordinate rows and finds the
    facet normals by double description (`_facets`).  The minimal face of a
    column is the intersection of the facets through it; a column spans an
    extreme ray exactly when every column of its minimal face has that same
    minimal face.  Rays are taken in order of their first column, and each
    is tested with the sum of the facet normals through it: the minimum
    weight of a basis of H's row matroid must equal the maximum weight of a
    basis of H's column matroid, which by duality is the total column weight
    less the minimum weight of a basis of the projected columns of A.
    """
    config = p.config
    n = config.matrix.cols
    rowidx = config.independent_rows
    r = len(rowidx)
    if r <= 1:
        # cone is a single ray, and every Jacobian generator lies on it
        return None
    pcols = [tuple(config.columns[j][i] for i in rowidx) for j in range(n)]
    pdegs = [tuple(d[i] for i in rowidx) for d in p.degrees]
    h = p.height

    facets = _facets(pcols, r, cap)
    if not facets:
        raise InternalInvariantViolation(
            "pointed full-dimensional cone produced no facets"
        )

    through = [[w for w, z in facets.items() if j in z] for j in range(n)]
    minimal = [
        frozenset.intersection(*(facets[w] for w in ws))
        if ws
        else frozenset(range(n))
        for ws in through
    ]

    for j in range(n):
        ray = minimal[j]
        if min(ray) != j or any(minimal[k] != ray for k in ray):
            continue  # a later column of a ray already seen, or not a ray
        w = [sum(col) for col in zip(*through[j])]
        roww = [sum(a * b for a, b in zip(w, d)) for d in pdegs]
        colw = [sum(a * b for a, b in zip(w, pc)) for pc in pcols]
        lo = _greedy_basis_weight(p.generators, roww, h)
        hi = sum(colw) - _greedy_basis_weight(pcols, colw, r)
        if lo - hi < 0:
            raise InternalInvariantViolation(
                "minimum Jacobian generator weight below zero on a ray functional"
            )
        if lo != hi:
            return tuple(sorted(ray))
    return None
