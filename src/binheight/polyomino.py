"""Ideals of unit-square collections via their inner 2-minors.

A cell is named by its lower-left lattice corner.  An inner interval is an
axis-aligned rectangle all of whose cells belong to the collection; each one
contributes the 2-minor supported on its four corners, +1 on the diagonal
pair and -1 on the anti-diagonal pair.  The exponent span of these minors
always has dimension equal to the number of cells, which pins the height
sandwich exactly.

Hole-free connected collections have prime ideals, so for those the
rectangle test decides whether the singularity is isolated.  For collections
with holes primality is not established here and the verdict reports
unknown_primality unless the caller asserts primality.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from functools import cached_property
from operator import index
from typing import Callable, Iterable, Sequence

from .binomial import BinomialPresentation, HeightBoundReport, height_bounds
from .errors import (
    EmptyCollection,
    EnumerationCapExceeded,
    InternalInvariantViolation,
    MalformedInput,
    NotConnected,
)
from .linalg import DEFAULT_ENUMERATION_CAP
from .toric import PERFECT_FIELD_CAVEAT, ToricConfiguration, ToricIdealPresentation

__all__ = [
    "CellCollection",
    "PolyominoHeightReport",
    "PolyominoSingularityReport",
    "inner_intervals",
    "interval_vector",
    "inner_minor_presentation",
    "height_report",
    "is_connected",
    "is_simple",
    "fills_bounding_box",
    "isolated_singularity_verdict",
    "toric_presentation",
    "ascii_art",
]

Cell = tuple[int, int]


@dataclass(frozen=True)
class CellCollection:
    """Finite nonempty set of unit cells, stored sorted by lower-left corner."""

    cells: tuple[Cell, ...]

    def __post_init__(self):
        seen = set()
        for c in self.cells:
            try:
                x, y = c
                cell = (index(x), index(y))
            except (TypeError, ValueError):
                raise MalformedInput(f"cell {c!r} is not a coordinate pair") from None
            seen.add(cell)
        if not seen:
            raise EmptyCollection("collection has no cells")
        object.__setattr__(self, "cells", tuple(sorted(seen)))

    @classmethod
    def of(cls, cells: Iterable[Sequence[int]]) -> "CellCollection":
        return cls(tuple((c[0], c[1]) for c in cells))

    @cached_property
    def cell_set(self) -> frozenset[Cell]:
        return frozenset(self.cells)

    @cached_property
    def vertices(self) -> tuple[Cell, ...]:
        vs = set()
        for x, y in self.cells:
            vs.update(((x, y), (x + 1, y), (x, y + 1), (x + 1, y + 1)))
        return tuple(sorted(vs))

    @cached_property
    def bounding_box(self) -> tuple[int, int, int, int]:
        xs = [c[0] for c in self.cells]
        ys = [c[1] for c in self.cells]
        return (min(xs), min(ys), max(xs), max(ys))

    @cached_property
    def vertex_index(self) -> dict[Cell, int]:
        """Position of each vertex in the sorted vertex basis."""
        return {v: k for k, v in enumerate(self.vertices)}


def inner_intervals(
    collection: CellCollection, cap: int = DEFAULT_ENUMERATION_CAP
) -> tuple[tuple[Cell, Cell], ...]:
    """All rectangles [a, b] whose cells all belong to the collection.

    Corners a < b strictly in both coordinates; single cells are the
    one-by-one intervals.  Sorted by (a, b).
    """
    verts = collection.vertices
    required = len(verts) * len(verts)
    if required > cap:
        raise EnumerationCapExceeded(required, cap, what="interval enumeration")
    cells = collection.cell_set
    out = []
    for a in verts:
        for b in verts:
            if a[0] < b[0] and a[1] < b[1]:
                if all(
                    (x, y) in cells
                    for x in range(a[0], b[0])
                    for y in range(a[1], b[1])
                ):
                    out.append((a, b))
    return tuple(sorted(out))


def interval_vector(
    collection: CellCollection, a: Cell, b: Cell
) -> tuple[int, ...]:
    """Exponent vector of the 2-minor of interval [a, b] on the vertex basis.

    +1 at the diagonal corners a and b, -1 at the anti-diagonal corners.
    """
    if not (a[0] < b[0] and a[1] < b[1]):
        raise MalformedInput(
            f"corners {a!r}, {b!r} do not span a proper rectangle"
        )
    index = collection.vertex_index
    vec = [0] * len(index)
    try:
        vec[index[a]] += 1
        vec[index[(b[0], b[1])]] += 1
        vec[index[(a[0], b[1])]] -= 1
        vec[index[(b[0], a[1])]] -= 1
    except KeyError as missing:
        raise MalformedInput(
            f"corner {missing.args[0]!r} is not a vertex of the collection"
        ) from None
    return tuple(vec)


def inner_minor_presentation(
    collection: CellCollection, cap: int = DEFAULT_ENUMERATION_CAP
) -> BinomialPresentation:
    """Binomial presentation on the vertex variables, one 2-minor per interval."""
    names = tuple(f"x({x},{y})" for x, y in collection.vertices)
    gens = tuple(
        interval_vector(collection, a, b)
        for a, b in inner_intervals(collection, cap=cap)
    )
    return BinomialPresentation(
        n=len(names), variable_names=names, generators=gens
    )


@dataclass(frozen=True)
class PolyominoHeightReport:
    cell_count: int
    connected: bool
    simple: bool
    bounds: HeightBoundReport
    presentation: BinomialPresentation  # one generator per inner interval

    def statement(self) -> str:
        return self.bounds.statement()


def height_report(
    collection: CellCollection, cap: int = DEFAULT_ENUMERATION_CAP
) -> PolyominoHeightReport:
    """Height sandwich for the inner-minor ideal.

    The span dimension always equals the cell count; hole-free connected
    collections have prime (hence unmixed) ideals, which upgrades the
    sandwich to an exact height.
    """
    pres = inner_minor_presentation(collection, cap=cap)
    connected = is_connected(collection)
    simple = connected and is_simple(collection)
    bounds = height_bounds(pres, unmixed=simple)
    if bounds.span_dim != len(collection.cells):
        raise InternalInvariantViolation(
            f"span dimension {bounds.span_dim} disagrees with "
            f"cell count {len(collection.cells)}"
        )
    return PolyominoHeightReport(
        cell_count=len(collection.cells),
        connected=connected,
        simple=simple,
        bounds=bounds,
        presentation=pres,
    )


_STEPS = ((1, 0), (-1, 0), (0, 1), (0, -1))


def _reach(start: Cell, allowed: Callable[[Cell], bool]) -> set[Cell]:
    """Cells reached from start through edge neighbours for which allowed holds."""
    seen = {start}
    queue = deque([start])
    while queue:
        x, y = queue.popleft()
        for dx, dy in _STEPS:
            nb = (x + dx, y + dy)
            if nb not in seen and allowed(nb):
                seen.add(nb)
                queue.append(nb)
    return seen


def is_connected(collection: CellCollection) -> bool:
    """Edge-connectivity of the cells (shared edges, not corners)."""
    cells = collection.cell_set
    return len(_reach(collection.cells[0], cells.__contains__)) == len(cells)


def is_simple(collection: CellCollection) -> bool:
    """Whether the connected collection has no holes.

    Flood-fills the complement inside a one-cell margin around the bounding
    box; a complement cell unreachable from the margin is a hole.
    """
    if not is_connected(collection):
        raise NotConnected("hole detection needs a connected collection")
    x0, y0, x1, y1 = collection.bounding_box
    cells = collection.cell_set

    def margin_or_gap(c: Cell) -> bool:
        return x0 - 1 <= c[0] <= x1 + 1 and y0 - 1 <= c[1] <= y1 + 1 and c not in cells

    total = (x1 - x0 + 3) * (y1 - y0 + 3)
    return len(_reach((x0 - 1, y0 - 1), margin_or_gap)) == total - len(cells)


def fills_bounding_box(collection: CellCollection) -> bool:
    """Whether the collection is a full rectangle of cells."""
    x0, y0, x1, y1 = collection.bounding_box
    return len(collection.cells) == (x1 - x0 + 1) * (y1 - y0 + 1)


@dataclass(frozen=True)
class PolyominoSingularityReport:
    status: str  # "isolated" | "not_isolated" | "unknown_primality"
    rectangle: bool
    simple: bool
    caveat: str
    note: str | None = None


def isolated_singularity_verdict(
    collection: CellCollection, assume_prime: bool = False
) -> PolyominoSingularityReport:
    """Rectangle test for isolatedness of the singular locus.

    Valid when the inner-minor ideal is prime: hole-free connected
    collections qualify automatically, holes need the caller to assert
    primality.  With primality settled, the singularity is isolated exactly
    when the collection is a full rectangle.
    """
    simple = is_simple(collection)
    if not simple and not assume_prime:
        return PolyominoSingularityReport(
            status="unknown_primality",
            rectangle=fills_bounding_box(collection),
            simple=False,
            caveat=PERFECT_FIELD_CAVEAT,
            note=(
                "collection has a hole; the rectangle criterion needs a prime "
                "ideal, pass assume_prime=True to assert it"
            ),
        )
    rect = fills_bounding_box(collection)
    return PolyominoSingularityReport(
        status="isolated" if rect else "not_isolated",
        rectangle=rect,
        simple=simple,
        caveat=PERFECT_FIELD_CAVEAT,
        note=None if simple else "primality asserted by caller",
    )


def toric_presentation(
    collection: CellCollection,
    configuration: ToricConfiguration,
    cap: int = DEFAULT_ENUMERATION_CAP,
) -> ToricIdealPresentation:
    """Inner minors as a toric presentation over a caller-supplied configuration.

    The configuration columns must correspond to the vertices in sorted order;
    construction rejects configurations whose kernel misses any minor.
    """
    gens = inner_minor_presentation(collection, cap=cap).generators
    return ToricIdealPresentation(config=configuration, generators=gens)


def ascii_art(collection: CellCollection, cap: int = DEFAULT_ENUMERATION_CAP) -> str:
    """Rows of '#' and '.', highest y first.

    A bounding box of more than `cap` unit squares is refused.
    """
    x0, y0, x1, y1 = collection.bounding_box
    area = (x1 - x0 + 1) * (y1 - y0 + 1)
    if area > cap:
        raise EnumerationCapExceeded(area, cap, what="picture")
    cells = collection.cell_set
    lines = []
    for y in range(y1, y0 - 1, -1):
        lines.append(
            "".join("#" if (x, y) in cells else "." for x in range(x0, x1 + 1))
        )
    return "\n".join(lines)
