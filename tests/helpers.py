"""Independent oracles and exhaustive enumerators shared by the tests.

Everything here is deliberately naive: Fraction-based elimination, cofactor
determinants, brute-force enumeration.  The point is to agree with the
package through different code paths.
"""

import random
from fractions import Fraction
from itertools import combinations
from math import comb, gcd
from typing import Iterable, Sequence

from binheight.hibi import Poset
from binheight.linalg import IntegerMatrix, smith_normal_form
from binheight.polyomino import CellCollection
from binheight.toric import (
    ToricConfiguration,
    ToricIdealPresentation,
    jacobian_generators,
)

LETTERS = "abcdefgh"

# Largest minor-pair count the literal isolated-singularity route enumerates,
# and the largest variable power it tries.
LITERAL_PAIRS = 20000
LITERAL_POWER = 5


def cofactor_det(rows: Sequence[Sequence[int]]) -> int:
    n = len(rows)
    if n == 0:
        return 1
    if n == 1:
        return rows[0][0]
    total = 0
    for j in range(n):
        if rows[0][j] == 0:
            continue
        minor = [[r[k] for k in range(n) if k != j] for r in rows[1:]]
        total += (-1) ** j * rows[0][j] * cofactor_det(minor)
    return total


def naive_rank(rows: Iterable[Sequence[int]]) -> int:
    work = [[Fraction(x) for x in r] for r in rows]
    rank = 0
    cols = len(work[0]) if work else 0
    for c in range(cols):
        pivot = None
        for i in range(rank, len(work)):
            if work[i][c]:
                pivot = i
                break
        if pivot is None:
            continue
        work[rank], work[pivot] = work[pivot], work[rank]
        pr = work[rank]
        for i in range(len(work)):
            if i != rank and work[i][c]:
                f = work[i][c] / pr[c]
                work[i] = [a - f * b for a, b in zip(work[i], pr)]
        rank += 1
    return rank


def lattice_member(vectors: Sequence[Sequence[int]], target: Sequence[int]) -> bool:
    """Membership of target in the integer row span of arbitrary vectors.

    Solves x*M = target through the Smith form: with U*M*V = D the system
    becomes y*D = target*V, solvable over the integers iff each coordinate
    of target*V is divisible by the matching divisor (zero past the rank).
    """
    vecs = [list(v) for v in vectors]
    if not vecs:
        return not any(target)
    m = IntegerMatrix.from_rows(vecs)
    d = smith_normal_form(m)
    tv = [
        sum(target[i] * d.v.entry(i, j) for i in range(m.cols))
        for j in range(m.cols)
    ]
    for j, val in enumerate(tv):
        if j < len(d.divisors):
            if val % d.divisors[j]:
                return False
        elif val:
            return False
    return True


def labeled_posets(n: int) -> list[frozenset[tuple[int, int]]]:
    """All strict partial orders on {0..n-1}, as sets of (lower, upper) pairs.

    Built by recursive extension: each poset on k elements restricts to one
    on k-1, and the new element is determined by its down-set and up-set.
    """
    if n == 0:
        return [frozenset()]
    out = []
    new = n - 1
    for rel in labeled_posets(n - 1):
        down_sets = []
        up_sets = []
        for bits in range(1 << (n - 1)):
            s = {i for i in range(n - 1) if bits >> i & 1}
            if all(a in s for (a, b) in rel if b in s):
                down_sets.append(s)
            if all(b in s for (a, b) in rel if a in s):
                up_sets.append(s)
        for d in down_sets:
            for u in up_sets:
                if d & u:
                    continue
                if all((a, b) in rel for a in d for b in u):
                    out.append(
                        rel
                        | {(a, new) for a in d}
                        | {(new, b) for b in u}
                    )
    return out


def poset_from_relation(n: int, rel: Iterable[tuple[int, int]]) -> Poset:
    labels = tuple(LETTERS[:n])
    return Poset(
        elements=labels,
        covers=tuple((labels[a], labels[b]) for a, b in sorted(rel)),
    )


def fixed_polyominoes(max_cells: int) -> dict[int, list[tuple[tuple[int, int], ...]]]:
    """Edge-connected cell sets up to translation, keyed by cell count."""

    def canon(cells):
        x0 = min(c[0] for c in cells)
        y0 = min(c[1] for c in cells)
        return tuple(sorted((x - x0, y - y0) for x, y in cells))

    sizes: dict[int, set] = {1: {canon([(0, 0)])}}
    for k in range(2, max_cells + 1):
        grown = set()
        for p in sizes[k - 1]:
            for (x, y) in p:
                for dx, dy in ((1, 0), (-1, 0), (0, 1), (0, -1)):
                    nb = (x + dx, y + dy)
                    if nb not in p:
                        grown.add(canon(list(p) + [nb]))
        sizes[k] = grown
    return {k: sorted(v) for k, v in sizes.items()}


def coordinate_configuration(collection: CellCollection) -> ToricConfiguration:
    """0/1 configuration with one row per x-line and per y-line of vertices.

    The vertex (x, y) maps to e_x + e_y, which kills every inner 2-minor;
    whether the minors span the whole kernel depends on the shape and is
    certified (or rejected) at presentation construction.
    """
    xs = sorted({v[0] for v in collection.vertices})
    ys = sorted({v[1] for v in collection.vertices})
    xi = {x: k for k, x in enumerate(xs)}
    yi = {y: k for k, y in enumerate(ys)}
    height = len(xs) + len(ys)
    cols = []
    for (x, y) in collection.vertices:
        col = [0] * height
        col[xi[x]] = 1
        col[len(xs) + yi[y]] = 1
        cols.append(col)
    return ToricConfiguration(
        IntegerMatrix.from_rows(
            [[c[i] for c in cols] for i in range(height)], cols=len(cols)
        )
    )


def semigroup_points(
    columns: Sequence[Sequence[int]], bound: Sequence[int]
) -> set[tuple[int, ...]]:
    """Every nonnegative integer combination of the columns that is <= bound.

    Breadth-first over partial sums; with nonnegative columns every partial
    sum of a point below the bound is itself below it.
    """
    start = tuple(0 for _ in bound)
    seen = {start}
    frontier = [start]
    while frontier:
        nxt = []
        for point in frontier:
            for col in columns:
                cand = tuple(a + b for a, b in zip(point, col))
                if cand not in seen and all(a <= b for a, b in zip(cand, bound)):
                    seen.add(cand)
                    nxt.append(cand)
        frontier = nxt
    return seen


def literal_fits(p: ToricIdealPresentation) -> bool:
    """Whether the literal route's minor enumeration stays within LITERAL_PAIRS."""
    h = p.height
    return comb(len(p.generators), h) * comb(p.config.matrix.cols, h) <= LITERAL_PAIRS


def literal_isolated(p: ToricIdealPresentation) -> bool:
    """Literal power-witness route to the isolated-singularity verdict.

    The singularity is isolated iff a power of every variable lies in the
    Jacobian ideal: for each column a_j, some k*a_j - u is a semigroup element
    for a Jacobian generator u.  Generators come from every rank-sized minor,
    semigroup elements from a brute-force search.  True is exact; False says
    no power up to LITERAL_POWER was found.  A zero ideal counts as isolated.
    """
    gens = jacobian_generators(p, cap=LITERAL_PAIRS).generators
    cols = p.config.columns
    bound = tuple(LITERAL_POWER * max(c[i] for c in cols) for i in range(len(cols[0])))
    points = semigroup_points(cols, bound)
    return all(
        any(
            tuple(k * a - b for a, b in zip(col, u)) in points
            for k in range(1, LITERAL_POWER + 1)
            for u in gens
        )
        for col in cols
    )


def random_kernel_presentation(
    rng: random.Random, max_rows: int = 3, max_cols: int = 6
) -> ToricIdealPresentation:
    """Random nonnegative configuration with a lattice basis of its kernel.

    Columns are distinct and nonzero with entries 0..3, so m rows allow at
    most 4^m - 1 of them; there are more columns than rows, so the
    kernel is nonzero.  The basis is the tail of the Smith column transform.
    """
    m = rng.randrange(1, max_rows + 1)
    n = rng.randrange(m + 1, min(max_cols, 4**m - 1) + 1)
    cols: set[tuple[int, ...]] = set()
    while len(cols) < n:
        col = tuple(rng.randrange(0, 4) for _ in range(m))
        if any(col):
            cols.add(col)
    order = sorted(cols)
    rng.shuffle(order)
    a = IntegerMatrix.from_rows([[c[i] for c in order] for i in range(m)], cols=n)
    d = smith_normal_form(a)
    basis = tuple(d.v.column(j) for j in range(len(d.divisors), n))
    return ToricIdealPresentation(config=ToricConfiguration(a), generators=basis)


def projected_columns(config: ToricConfiguration) -> list[tuple[int, ...]]:
    """Columns of A restricted to the rows not in the span of earlier rows."""
    rows = config.matrix.to_rows()
    keep: list[int] = []
    for i in range(len(rows)):
        if naive_rank([rows[k] for k in keep + [i]]) > len(keep):
            keep.append(i)
    return [tuple(c[i] for i in keep) for c in config.columns]


def brute_force_facets(
    pcols: Sequence[Sequence[int]], r: int
) -> dict[tuple[int, ...], frozenset[int]]:
    """Facet normals of the cone over columns spanning Q^r, by subset search.

    Every (r-1)-subset of columns gets its cofactor normal, made primitive;
    when all columns lie on one side of it, it is a facet normal, signed to
    be nonnegative, and maps to the columns it vanishes on.  Subsets inside
    a facet already found are skipped, since they reproduce it.
    """
    facets: dict[tuple[int, ...], frozenset[int]] = {}
    covered: set[frozenset[int]] = set()
    for subset in combinations(range(len(pcols)), r - 1):
        if frozenset(subset) in covered:
            continue
        rows = [pcols[j] for j in subset]
        w = []
        for i in range(r):
            sub = [[x for k, x in enumerate(row) if k != i] for row in rows]
            w.append((-1) ** i * cofactor_det(sub))
        g = gcd(*w)
        if g == 0:
            continue
        vals = [sum(a * b for a, b in zip(w, pc)) for pc in pcols]
        if all(v <= 0 for v in vals):
            g = -g
        elif not all(v >= 0 for v in vals):
            continue
        zeros = frozenset(j for j, v in enumerate(vals) if v == 0)
        facets[tuple(x // g for x in w)] = zeros
        covered.update(frozenset(sub) for sub in combinations(sorted(zeros), r - 1))
    return facets
