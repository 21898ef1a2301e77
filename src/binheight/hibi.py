"""Lattices of poset ideals and the binomial relations among them.

The down-closed subsets of a finite poset form a distributive lattice under
union and intersection; assigning one variable per ideal, the straightening relations
y_I y_J - y_(I meet J) y_(I join J) over inclusion-incomparable pairs present
the associated semigroup ring.  The configuration has one row for a global
counter and one per poset element, with 0/1 columns recording membership, so
the defining ideal has height (#ideals) - (#elements) - 1.

The singular locus is isolated exactly when every connected component of the
comparability graph is a chain.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import combinations
from math import comb, isqrt
from typing import Iterable

from .binomial import BinomialPresentation
from .errors import (
    EnumerationCapExceeded,
    InternalInvariantViolation,
    MalformedInput,
    NotAnIdeal,
)
from .linalg import DEFAULT_ENUMERATION_CAP, IntegerMatrix
from .toric import PERFECT_FIELD_CAVEAT, ToricConfiguration, ToricIdealPresentation

__all__ = [
    "Poset",
    "HibiPresentation",
    "HibiSingularityReport",
    "poset_ideals",
    "is_ideal",
    "join_and_meet",
    "presentation",
    "defining_ideal_height",
    "dual",
    "comparability_components",
    "isolated_singularity_verdict",
]


@dataclass(frozen=True)
class Poset:
    """Finite poset given by labels and generating (lower, upper) relations.

    Relations may be covers or any acyclic generating set; the order is their
    transitive closure.
    """

    elements: tuple[str, ...]
    covers: tuple[tuple[str, str], ...]

    def __post_init__(self):
        labels = tuple(str(e) for e in self.elements)
        if len(set(labels)) != len(labels):
            raise MalformedInput("poset labels must be distinct")
        index = {e: k for k, e in enumerate(labels)}
        pairs = []
        for c in self.covers:
            try:
                lo, hi = c
            except (TypeError, ValueError):
                raise MalformedInput(f"relation {c!r} is not a label pair") from None
            lo, hi = str(lo), str(hi)
            if lo not in index or hi not in index:
                raise MalformedInput(f"relation {c!r} uses an unknown label")
            if lo == hi:
                raise MalformedInput(f"relation {c!r} relates a label to itself")
            pairs.append((lo, hi))
        object.__setattr__(self, "elements", labels)
        object.__setattr__(self, "covers", tuple(sorted(set(pairs))))
        # Kahn's algorithm both rejects cycles and fixes a linear extension
        succ = {e: set() for e in labels}
        indeg = {e: 0 for e in labels}
        for lo, hi in self.covers:  # distinct pairs
            succ[lo].add(hi)
            indeg[hi] += 1
        ready = sorted(e for e in labels if indeg[e] == 0)
        topo = []
        while ready:
            e = ready.pop(0)
            topo.append(e)
            added = []
            for f in succ[e]:
                indeg[f] -= 1
                if indeg[f] == 0:
                    added.append(f)
            ready.extend(sorted(added))
        if len(topo) != len(labels):
            raise MalformedInput("relations contain a cycle")
        object.__setattr__(self, "_topo", tuple(topo))

    @cached_property
    def below(self) -> dict[str, frozenset[str]]:
        """Strictly smaller elements, by transitive closure."""
        lower: dict[str, list[str]] = {e: [] for e in self.elements}
        for lo, hi in self.covers:
            lower[hi].append(lo)
        out: dict[str, frozenset[str]] = {}
        for e in self._topo:
            out[e] = frozenset(lower[e]).union(*(out[f] for f in lower[e]))
        return out

    def comparable(self, a: str, b: str) -> bool:
        return a == b or a in self.below[b] or b in self.below[a]


def _ideal_masks(p: Poset, limit: int) -> list[int]:
    """Down-closed subsets as bit masks over p.elements, unordered; at most limit + 1."""
    bit = {e: 1 << k for k, e in enumerate(p.elements)}
    steps = [(bit[e], sum(bit[b] for b in p.below[e])) for e in p._topo]
    found: list[int] = []
    # depth-first along the linear extension, leaving each element out before
    # putting it in; the stack holds (next position, ideal so far)
    stack = [(0, 0)]
    while stack:
        k, current = stack.pop()
        if k == len(steps):
            found.append(current)
            if len(found) > limit:
                break
            continue
        e, below = steps[k]
        # every element below e sits earlier in the linear extension
        if current & below == below:
            stack.append((k + 1, current | e))
        stack.append((k + 1, current))
    return found


def _labelled(p: Poset, masks: Iterable[int]) -> list[tuple[tuple[str, ...], int]]:
    """(sorted labels, mask) per ideal, ordered by size then labels."""
    order = sorted(range(len(p.elements)), key=p.elements.__getitem__)
    labelled = [(tuple(p.elements[k] for k in order if m >> k & 1), m) for m in masks]
    return sorted(labelled, key=lambda t: (len(t[0]), t[0]))


def poset_ideals(p: Poset, cap: int = DEFAULT_ENUMERATION_CAP) -> tuple[tuple[str, ...], ...]:
    """Every down-closed subset, as sorted label tuples ordered by size then lex.

    More than `cap` ideals are refused.
    """
    masks = _ideal_masks(p, cap)
    if len(masks) > cap:
        raise EnumerationCapExceeded(len(masks), cap, what="ideal enumeration", at_least=True)
    return tuple(labels for labels, _ in _labelled(p, masks))


def is_ideal(p: Poset, subset: Iterable[str]) -> bool:
    s = set(str(x) for x in subset)
    if not s <= set(p.elements):
        return False
    return all(p.below[a] <= s for a in s)


def join_and_meet(
    p: Poset, first: Iterable[str], second: Iterable[str]
) -> tuple[tuple[str, ...], tuple[str, ...]]:
    """Union and intersection of two poset ideals, as (join, meet)."""
    a = set(str(x) for x in first)
    b = set(str(x) for x in second)
    for s in (a, b):
        if not is_ideal(p, s):
            raise NotAnIdeal(f"{sorted(s)!r} is not down-closed")
    return tuple(sorted(a | b)), tuple(sorted(a & b))


@dataclass(frozen=True)
class HibiPresentation:
    """Straightening relations of the ideal lattice as a toric presentation."""

    poset: Poset
    ideals: tuple[tuple[str, ...], ...]
    names: tuple[str, ...]
    toric: ToricIdealPresentation

    @property
    def height(self) -> int:
        return self.toric.height

    @cached_property
    def binomial(self) -> BinomialPresentation:
        return BinomialPresentation(len(self.ideals), self.names, self.toric.generators)


def presentation(p: Poset, cap: int = DEFAULT_ENUMERATION_CAP) -> HibiPresentation:
    """Build the lattice presentation and certify its shape.

    Columns of the configuration are (1, indicator of the ideal); relations
    pair the inclusion-incomparable ideals.  Construction verifies that every
    relation lies in the configuration kernel, that the relations span the
    kernel rationally, and that the configuration has full rank
    #elements + 1.  `cap` bounds the pair tests among the ideals (checked
    while enumerating them), then the entries of the dense relations.
    """
    # the largest ideal count whose pairs fit the cap
    masks = _ideal_masks(p, (1 + isqrt(1 + 8 * max(cap, 0))) // 2)
    if (pairs := comb(len(masks), 2)) > cap:
        raise EnumerationCapExceeded(pairs, cap, what="ideal pair tests", at_least=True)
    labelled = _labelled(p, masks)
    masks = [m for _, m in labelled]
    n = len(masks)

    def incomparable():
        for (ka, a), (kb, b) in combinations(enumerate(masks), 2):
            if a & b not in (a, b):
                yield ka, kb, a | b, a & b

    entries = sum(1 for _ in incomparable()) * n
    if entries > cap:
        raise EnumerationCapExceeded(entries, cap, what="relation entries")
    index = {m: k for k, m in enumerate(masks)}
    gens = []
    for ka, kb, join, meet in incomparable():
        # four distinct ideals, since the pair is incomparable
        v = [0] * n
        v[ka] = v[kb] = 1
        v[index[join]] = v[index[meet]] = -1
        gens.append(tuple(v))
    ideals = tuple(labels for labels, _ in labelled)
    names = tuple("y(" + ",".join(i) + ")" for i in ideals)
    rows = [[1] * n] + [[m >> k & 1 for m in masks] for k in range(len(p.elements))]
    config = ToricConfiguration(IntegerMatrix.from_rows(rows, cols=n), column_names=names)
    toric = ToricIdealPresentation(config=config, generators=tuple(gens))
    if config.rank != len(p.elements) + 1:
        raise InternalInvariantViolation(
            f"configuration rank {config.rank} is not "
            f"#elements + 1 = {len(p.elements) + 1}"
        )
    return HibiPresentation(poset=p, ideals=ideals, names=names, toric=toric)


def defining_ideal_height(p: Poset, cap: int = DEFAULT_ENUMERATION_CAP) -> int:
    """Height of the lattice relations: #ideals - #elements - 1, certified."""
    return presentation(p, cap=cap).height


def dual(p: Poset) -> Poset:
    """Same elements with every relation reversed."""
    return Poset(
        elements=p.elements, covers=tuple((hi, lo) for lo, hi in p.covers)
    )


def comparability_components(p: Poset) -> tuple[tuple[str, ...], ...]:
    """Connected components of the comparability graph, sorted.

    Comparability is the transitive closure of the relations, so these are
    the components of the graph of relations.
    """
    nbrs: dict[str, set[str]] = {e: set() for e in p.elements}
    for lo, hi in p.covers:
        nbrs[lo].add(hi)
        nbrs[hi].add(lo)
    remaining = set(p.elements)
    comps = []
    while remaining:
        comp: set[str] = set()
        frontier = [min(remaining)]
        while frontier:
            e = frontier.pop()
            if e not in comp:
                comp.add(e)
                frontier.extend(nbrs[e] - comp)
        remaining -= comp
        comps.append(tuple(sorted(comp)))
    return tuple(sorted(comps))


@dataclass(frozen=True)
class HibiSingularityReport:
    status: str  # "isolated" | "not_isolated"
    components: tuple[tuple[str, ...], ...]
    chain_components: bool
    caveat: str
    note: str | None = None


def isolated_singularity_verdict(p: Poset) -> HibiSingularityReport:
    """Chain test: isolated iff every comparability component is totally ordered."""
    comps = comparability_components(p)
    offending = next(
        (ab for comp in comps for ab in combinations(comp, 2) if not p.comparable(*ab)),
        None,
    )
    chains = offending is None
    return HibiSingularityReport(
        status="isolated" if chains else "not_isolated",
        components=comps,
        chain_components=chains,
        caveat=PERFECT_FIELD_CAVEAT,
        note=(
            None
            if chains
            else f"elements {offending[0]!r} and {offending[1]!r} share a "
            "component but are incomparable"
        ),
    )
