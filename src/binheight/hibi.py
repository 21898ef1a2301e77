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
from typing import Iterable

from .binomial import BinomialPresentation
from .errors import (
    InternalInvariantViolation,
    LatticeTooLarge,
    MalformedInput,
    NotAnIdeal,
)
from .linalg import IntegerMatrix
from .toric import PERFECT_FIELD_CAVEAT, ToricConfiguration, ToricIdealPresentation

__all__ = [
    "Poset",
    "HibiPresentation",
    "HibiSingularityReport",
    "MAX_IDEALS",
    "poset_ideals",
    "is_ideal",
    "join_and_meet",
    "presentation",
    "defining_ideal_height",
    "dual",
    "comparability_components",
    "isolated_singularity_verdict",
]

MAX_IDEALS = 1 << 20


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
        for lo, hi in self.covers:
            if hi not in succ[lo]:
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
    def above(self) -> dict[str, frozenset[str]]:
        """Strictly greater elements, by transitive closure."""
        succ: dict[str, set[str]] = {e: set() for e in self.elements}
        for lo, hi in self.covers:
            succ[lo].add(hi)
        out: dict[str, frozenset[str]] = {}
        for e in reversed(self._topo):
            acc: set[str] = set()
            for f in succ[e]:
                acc.add(f)
                acc |= out[f]
            out[e] = frozenset(acc)
        return out

    @cached_property
    def below(self) -> dict[str, frozenset[str]]:
        inv: dict[str, set[str]] = {e: set() for e in self.elements}
        for e, ups in self.above.items():
            for f in ups:
                inv[f].add(e)
        return {e: frozenset(s) for e, s in inv.items()}

    def comparable(self, a: str, b: str) -> bool:
        return a == b or b in self.above[a] or a in self.above[b]


def poset_ideals(
    p: Poset, max_ideals: int = MAX_IDEALS
) -> tuple[tuple[str, ...], ...]:
    """Every down-closed subset, as sorted label tuples ordered by size then lex."""
    topo = p._topo
    below = p.below
    found: list[frozenset[str]] = []
    # depth-first along the linear extension, leaving each element out before
    # putting it in; the stack holds (next position, ideal so far)
    stack = [(0, frozenset())]
    while stack:
        k, current = stack.pop()
        if k == len(topo):
            if len(found) >= max_ideals:
                raise LatticeTooLarge(
                    f"more than {max_ideals} ideals; raise max_ideals to proceed"
                )
            found.append(current)
            continue
        e = topo[k]
        # every element below e sits earlier in the linear extension
        if all(b in current for b in below[e]):
            stack.append((k + 1, current | {e}))
        stack.append((k + 1, current))
    return tuple(sorted((tuple(sorted(s)) for s in found), key=lambda t: (len(t), t)))


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
        return BinomialPresentation(
            n=len(self.ideals),
            variable_names=self.names,
            generators=self.toric.generators,
        )


def presentation(p: Poset, max_ideals: int = MAX_IDEALS) -> HibiPresentation:
    """Build the lattice presentation and certify its shape.

    Columns of the configuration are (1, indicator of the ideal); relations
    pair the inclusion-incomparable ideals.  Construction verifies that every
    relation lies in the configuration kernel, that the relations span the
    kernel rationally, and that the configuration has full rank
    #elements + 1.
    """
    ideals = poset_ideals(p, max_ideals=max_ideals)
    index = {i: k for k, i in enumerate(ideals)}
    names = tuple("y(" + ",".join(i) + ")" for i in ideals)
    rows = [[1] * len(ideals)]
    for e in p.elements:
        rows.append([1 if e in idl else 0 for idl in ideals])
    config = ToricConfiguration(
        matrix=IntegerMatrix.from_rows(rows, cols=len(ideals)),
        column_names=names,
    )
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
    toric = ToricIdealPresentation(config=config, generators=tuple(gens))
    if config.rank != len(p.elements) + 1:
        raise InternalInvariantViolation(
            f"configuration rank {config.rank} is not "
            f"#elements + 1 = {len(p.elements) + 1}"
        )
    return HibiPresentation(poset=p, ideals=ideals, names=names, toric=toric)


def defining_ideal_height(p: Poset, max_ideals: int = MAX_IDEALS) -> int:
    """Height of the lattice relations: #ideals - #elements - 1, certified."""
    return presentation(p, max_ideals=max_ideals).height


def dual(p: Poset) -> Poset:
    """Same elements with every relation reversed."""
    return Poset(
        elements=p.elements, covers=tuple((hi, lo) for lo, hi in p.covers)
    )


def comparability_components(p: Poset) -> tuple[tuple[str, ...], ...]:
    """Connected components of the comparability graph, sorted."""
    remaining = set(p.elements)
    comps = []
    while remaining:
        seed = min(remaining)
        comp = {seed}
        frontier = [seed]
        while frontier:
            e = frontier.pop()
            for f in p.above[e] | p.below[e]:
                if f in remaining and f not in comp:
                    comp.add(f)
                    frontier.append(f)
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
    offending = None
    for comp in comps:
        for i in range(len(comp)):
            for j in range(i + 1, len(comp)):
                if not p.comparable(comp[i], comp[j]):
                    offending = (comp[i], comp[j])
                    break
            if offending:
                break
        if offending:
            break
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
