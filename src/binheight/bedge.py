"""Edge binomials of a graph and the combinatorics of their minimal primes.

Each edge {i, j} of a graph on n vertices contributes the 2-minor of columns
i and j of a generic 2 x n matrix, an exponent vector on 2n variables.  The
minimal primes are indexed by cut sets: vertex sets W that are empty or whose
every member, when put back, strictly decreases the number of remaining
components.  The prime of W has height |W| + n - c(W), so the exact height
and bigheight fall out of an enumeration of cut sets, while the exponent span
has dimension n minus the number of components of the whole graph.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from operator import index
from typing import Iterable, Sequence

from .binomial import BinomialPresentation, HeightBoundReport, height_bounds
from .errors import (
    EnumerationCapExceeded,
    IndexOutOfRange,
    InternalInvariantViolation,
    MalformedInput,
)
from .linalg import DEFAULT_ENUMERATION_CAP, IntegerMatrix, rational_rank

__all__ = [
    "Graph",
    "EdgeIdealHeightReport",
    "edge_presentation",
    "incidence_matrix",
    "components_after_removal",
    "cut_sets",
    "height_report",
]


@dataclass(frozen=True)
class Graph:
    """Simple undirected graph on vertices 0..n-1 with deduplicated edges."""

    n: int
    edges: tuple[tuple[int, int], ...]

    def __post_init__(self):
        if not isinstance(self.n, int) or self.n < 1:
            raise MalformedInput(f"vertex count {self.n!r} must be a positive integer")
        seen = set()
        for e in self.edges:
            try:
                i, j = e
                i, j = index(i), index(j)
            except (TypeError, ValueError):
                raise MalformedInput(f"edge {e!r} is not a vertex pair") from None
            if i == j:
                raise MalformedInput(f"loop at vertex {i} is not allowed")
            if not (0 <= i < self.n and 0 <= j < self.n):
                raise MalformedInput(f"edge {e!r} leaves the vertex range 0..{self.n - 1}")
            seen.add((min(i, j), max(i, j)))
        object.__setattr__(self, "edges", tuple(sorted(seen)))

    @classmethod
    def of(cls, n: int, edges: Iterable[Sequence[int]]) -> "Graph":
        return cls(n, tuple((e[0], e[1]) for e in edges))

    @cached_property
    def adjacency_masks(self) -> tuple[int, ...]:
        adj = [0] * self.n
        for i, j in self.edges:
            adj[i] |= 1 << j
            adj[j] |= 1 << i
        return tuple(adj)

    @cached_property
    def _removal_counts(self) -> bytearray:
        """Components left after removing each vertex bitmask: 2^n entries.

        Component counts fit a byte.  Only cut_sets reads this, after
        checking 2^n against the enumeration cap.
        """
        adj = self.adjacency_masks
        return bytearray(
            _component_count(adj, self.n, mask) for mask in range(1 << self.n)
        )


def edge_presentation(g: Graph) -> BinomialPresentation:
    """One exponent vector per edge on variables x1..xn, y1..yn.

    Edge {i, j} with i < j maps to +1 at x_i and y_j, -1 at x_j and y_i.
    """
    names = tuple(f"x{i + 1}" for i in range(g.n)) + tuple(
        f"y{i + 1}" for i in range(g.n)
    )
    gens = []
    for i, j in g.edges:
        v = [0] * (2 * g.n)
        v[i] += 1
        v[g.n + j] += 1
        v[j] -= 1
        v[g.n + i] -= 1
        gens.append(tuple(v))
    return BinomialPresentation(
        n=2 * g.n, variable_names=names, generators=tuple(gens)
    )


def incidence_matrix(g: Graph) -> IntegerMatrix:
    """Signed vertex-edge incidence: column per edge, +1 at the lower endpoint."""
    rows = [[0] * len(g.edges) for _ in range(g.n)]
    for k, (i, j) in enumerate(g.edges):
        rows[i][k] = 1
        rows[j][k] = -1
    return IntegerMatrix.from_rows(rows, cols=len(g.edges))


def _component_count(adj: Sequence[int], n: int, removed: int) -> int:
    remaining = ((1 << n) - 1) & ~removed
    count = 0
    while remaining:
        low = remaining & -remaining
        comp = low
        frontier = low
        while frontier:
            reach = 0
            probe = frontier
            while probe:
                bit = probe & -probe
                probe ^= bit
                reach |= adj[bit.bit_length() - 1]
            frontier = reach & remaining & ~comp
            comp |= frontier
        remaining &= ~comp
        count += 1
    return count


def components_after_removal(g: Graph, removed: Iterable[int] = ()) -> int:
    """Components of the induced subgraph after deleting the given vertices.

    Removing every vertex leaves zero components.
    """
    mask = 0
    for v in removed:
        v = int(v)
        if not 0 <= v < g.n:
            raise IndexOutOfRange(f"vertex {v} leaves the range 0..{g.n - 1}")
        mask |= 1 << v
    return _component_count(g.adjacency_masks, g.n, mask)


def cut_sets(
    g: Graph, cap: int = DEFAULT_ENUMERATION_CAP
) -> tuple[tuple[int, ...], ...]:
    """Vertex sets indexing the minimal primes, sorted by size then lex.

    W qualifies when it is empty or every i in W satisfies
    c(W minus i) < c(W).  It visits all 2^n vertex subsets; 2^n > cap is refused.
    """
    if 1 << g.n > cap:
        raise EnumerationCapExceeded(1 << g.n, cap, what="cut-set enumeration")
    counts = g._removal_counts
    out = []
    for mask in range(1 << g.n):
        c = counts[mask]
        probe = mask
        good = True
        while probe:
            bit = probe & -probe
            probe ^= bit
            if counts[mask ^ bit] >= c:
                good = False
                break
        if good:
            out.append(tuple(i for i in range(g.n) if mask >> i & 1))
    return tuple(sorted(out, key=lambda w: (len(w), w)))


@dataclass(frozen=True)
class EdgeIdealHeightReport:
    n: int
    edge_count: int
    components: int
    span_dim: int
    height: int
    bigheight: int
    height_witness: tuple[int, ...]
    bigheight_witness: tuple[int, ...]
    unmixed: bool
    bounds: HeightBoundReport
    cut_sets: tuple[tuple[int, ...], ...]

    def statement(self) -> str:
        if self.unmixed:
            return f"height = bigheight = {self.height} (unmixed)"
        return (
            f"height = {self.height} <= span {self.span_dim} "
            f"<= bigheight = {self.bigheight}"
        )


def height_report(
    g: Graph, cap: int = DEFAULT_ENUMERATION_CAP
) -> EdgeIdealHeightReport:
    """Exact height data for the edge binomials of g.

    Heights come from the cut-set enumeration, checked against `cap` first;
    the exponent span dimension is checked against n - components and
    against the rank of the signed incidence matrix.
    """
    sets = cut_sets(g, cap=cap)
    pres = edge_presentation(g)
    bounds = height_bounds(pres)
    comp = components_after_removal(g)
    expected = g.n - comp
    if bounds.span_dim != expected:
        raise InternalInvariantViolation(
            f"span dimension {bounds.span_dim} disagrees with "
            f"n - components = {expected}"
        )
    if rational_rank(incidence_matrix(g)) != expected:
        raise InternalInvariantViolation(
            "incidence matrix rank disagrees with n - components"
        )
    counts = g._removal_counts
    # the empty set always qualifies, so the list is never empty
    values = [
        (len(w) + g.n - counts[sum(1 << v for v in w)], w) for w in sets
    ]
    height, height_witness = min(values, key=lambda t: t[0])
    bigheight, bigheight_witness = max(values, key=lambda t: t[0])
    if not height <= bounds.span_dim <= bigheight:
        raise InternalInvariantViolation(
            f"span dimension {bounds.span_dim} escapes "
            f"[{height}, {bigheight}]"
        )
    return EdgeIdealHeightReport(
        n=g.n,
        edge_count=len(g.edges),
        components=comp,
        span_dim=bounds.span_dim,
        height=height,
        bigheight=bigheight,
        height_witness=height_witness,
        bigheight_witness=bigheight_witness,
        unmixed=height == bigheight,
        bounds=bounds,
        cut_sets=sets,
    )
