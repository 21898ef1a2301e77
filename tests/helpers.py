"""Independent oracles and exhaustive enumerators shared by the tests.

Everything here is deliberately naive: Fraction-based elimination, cofactor
determinants, brute-force enumeration.  The point is to agree with the
package through different code paths.
"""

import random
from fractions import Fraction
from functools import cache
from itertools import combinations, permutations
from math import comb, gcd
from typing import Iterable, Sequence

from binheight.binomial import split_signs
from binheight.errors import IndexOutOfRange, NotInKernel
from binheight.hibi import Poset
from binheight.linalg import (
    DEFAULT_ENUMERATION_CAP,
    IncrementalRank,
    IntegerMatrix,
    smith_normal_form,
)
from binheight.polyomino import CellCollection
from binheight.toric import (
    ToricConfiguration,
    ToricIdealPresentation,
    _facets,
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


def max_weight_column_basis(
    generators: Sequence[Sequence[int]], weights: Sequence[int]
) -> int:
    """Largest total weight of a basis of the column matroid of the generators.

    Greedy by decreasing weight over the columns of the generator matrix,
    keeping a column when naive_rank finds it independent of those kept.
    """
    kept: list[int] = []
    total = 0
    for j in sorted(range(len(weights)), key=lambda j: -weights[j]):
        cols = kept + [j]
        if naive_rank([[g[k] for k in cols] for g in generators]) == len(cols):
            kept = cols
            total += weights[j]
    return total


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


@cache
def poset_classes(n: int) -> tuple[frozenset[tuple[int, int]], ...]:
    """One relation set per isomorphism class of posets on {0..n-1}, computed once."""
    seen = set()
    out = []
    for rel in labeled_posets(n):
        canon = min(
            tuple(sorted((p[a], p[b]) for a, b in rel))
            for p in permutations(range(n))
        )
        if canon not in seen:
            seen.add(canon)
            out.append(rel)
    return tuple(out)


def set_presentation(p: Poset):
    """Ideals, names, relations and configuration rows of the ideal lattice.

    Ideals by testing every subset of the elements for closure under the
    generating relations, relations by the straightening pair loop over
    label sets: each inclusion-incomparable pair I, J gives
    y_I y_J - y_(I join J) y_(I meet J).
    """
    elements = p.elements
    ideals = []
    for bits in range(1 << len(elements)):
        s = {e for k, e in enumerate(elements) if bits >> k & 1}
        if all(lo in s for lo, hi in p.covers if hi in s):
            ideals.append(tuple(sorted(s)))
    ideals.sort(key=lambda t: (len(t), t))
    index = {i: k for k, i in enumerate(ideals)}
    names = tuple("y(" + ",".join(i) + ")" for i in ideals)
    gens = []
    for ka in range(len(ideals)):
        sa = set(ideals[ka])
        for kb in range(ka + 1, len(ideals)):
            sb = set(ideals[kb])
            if sa <= sb or sb <= sa:
                continue
            v = [0] * len(ideals)
            v[ka] += 1
            v[kb] += 1
            v[index[tuple(sorted(sa | sb))]] -= 1
            v[index[tuple(sorted(sa & sb))]] -= 1
            gens.append(tuple(v))
    rows = [tuple([1] * len(ideals))]
    rows += [tuple(1 if e in i else 0 for i in ideals) for e in elements]
    return tuple(ideals), names, tuple(gens), tuple(rows)


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
    kernel is nonzero.
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
    return kernel_presentation(order)


def kernel_presentation(columns: Sequence[Sequence[int]]) -> ToricIdealPresentation:
    """The configuration with these columns and a lattice basis of its kernel.

    The basis is the tail of the Smith column transform.
    """
    m, n = len(columns[0]), len(columns)
    a = IntegerMatrix.from_rows([[c[i] for c in columns] for i in range(m)], cols=n)
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


def greedy_basis_weight(
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
    raise AssertionError(f"matroid rank {inc.rank} below requested basis size {target}")


def greedy_bare_ray(
    p: ToricIdealPresentation, cap: int = DEFAULT_ENUMERATION_CAP
) -> tuple[int, ...] | None:
    """First extreme ray of cone(A) without a Jacobian generator, by weights.

    The same rays in the same order as the package, each tested through the
    sum w of the facet normals through it, a functional that vanishes exactly
    on the ray.  Every term of an h-minor of H has the same w-weight
    sum(w.deg(C)) - sum(w.a(D)), each entry's weight is >= 0, and it is 0
    exactly on the entries kept on the ray; so the ray carries a generator
    iff a minimum-weight basis of H's rows weighs as much as a maximum-weight
    basis of H's columns.  The generators span ker(A), so H's column matroid
    is the dual of A's (Oxley, Matroid Theory, 2.2.8): its maximum-weight
    basis is the complement of a minimum-weight basis of A's columns.
    """
    config = p.config
    n = config.matrix.cols
    rowidx = config.independent_rows
    r = len(rowidx)
    if r <= 1:
        return None
    pcols = [tuple(config.columns[j][i] for i in rowidx) for j in range(n)]
    pdegs = [tuple(d[i] for i in rowidx) for d in p.degrees]
    facets = _facets(pcols, r, cap)
    through = [[w for w, z in facets.items() if j in z] for j in range(n)]
    minimal = [
        frozenset.intersection(*(facets[w] for w in ws)) if ws else frozenset(range(n))
        for ws in through
    ]
    for j in range(n):
        ray = minimal[j]
        if min(ray) != j or any(minimal[k] != ray for k in ray):
            continue
        w = [sum(col) for col in zip(*through[j])]
        roww = [sum(a * b for a, b in zip(w, d)) for d in pdegs]
        colw = [sum(a * b for a, b in zip(w, pc)) for pc in pcols]
        lo = greedy_basis_weight(p.generators, roww, p.height)
        hi = sum(colw) - greedy_basis_weight(pcols, colw, r)
        assert lo >= hi, "minimum Jacobian generator weight below zero on a ray"
        if lo != hi:
            return tuple(sorted(ray))
    return None
