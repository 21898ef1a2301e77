"""Binomial presentations and height bounds from their exponent lattice.

A pure-difference binomial x^u - x^w is stored as the single exponent vector
u - w.  The rational span of a presentation's exponent vectors has a dimension
that squeezes the ideal's height from both sides: height <= span_dim <=
bigheight, with equality on the left exactly when the ideal is unmixed.
Unmixedness is not decidable from the raw vectors, so it enters only as a
caller assertion that the report echoes back.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import index
from typing import Sequence

from .errors import (
    InternalInvariantViolation,
    LengthMismatch,
    MalformedInput,
    ZeroGenerator,
)
from .linalg import IntegerMatrix, lattice_basis, smith_normal_form

__all__ = [
    "ExponentVector",
    "BinomialPresentation",
    "HeightBoundReport",
    "checked_generators",
    "from_monomial_pair",
    "split_signs",
    "height_bounds",
]

ExponentVector = tuple[int, ...]


def from_monomial_pair(u: Sequence[int], w: Sequence[int]) -> ExponentVector:
    """Exponent vector of the binomial x^u - x^w."""
    if len(u) != len(w):
        raise LengthMismatch(f"monomials of lengths {len(u)} and {len(w)}")
    if any(x < 0 for x in u) or any(x < 0 for x in w):
        raise MalformedInput("monomial exponents must be nonnegative")
    return tuple(int(a) - int(b) for a, b in zip(u, w))


def split_signs(v: Sequence[int]) -> tuple[ExponentVector, ExponentVector]:
    """Split v into (v_plus, v_minus), both nonnegative with disjoint support."""
    return (
        tuple(x if x > 0 else 0 for x in v),
        tuple(-x if x < 0 else 0 for x in v),
    )


def checked_generators(
    generators: Sequence[Sequence[int]], n: int
) -> tuple[ExponentVector, ...]:
    """Generators as int tuples, each of length n and nonzero."""
    gens = []
    for k, g in enumerate(generators):
        try:
            t = tuple(map(index, g))
        except TypeError:
            raise MalformedInput(f"generator {k} has a non-integer entry") from None
        if len(t) != n:
            raise LengthMismatch(f"generator {k} has length {len(t)}, expected {n}")
        if not any(t):
            raise ZeroGenerator(f"generator {k} is the zero vector")
        gens.append(t)
    return tuple(gens)


@dataclass(frozen=True)
class BinomialPresentation:
    """Generators of a pure-difference binomial ideal in n variables."""

    n: int
    variable_names: tuple[str, ...]
    generators: tuple[ExponentVector, ...]

    def __post_init__(self):
        names = tuple(str(s) for s in self.variable_names)
        if len(names) != self.n:
            raise LengthMismatch(f"{len(names)} names for {self.n} variables")
        gens = checked_generators(self.generators, self.n)
        object.__setattr__(self, "variable_names", names)
        object.__setattr__(self, "generators", gens)

    @classmethod
    def with_default_names(
        cls, generators: Sequence[Sequence[int]], prefix: str = "x"
    ) -> "BinomialPresentation":
        gens = [tuple(g) for g in generators]
        if not gens:
            raise ZeroGenerator("presentation needs at least one generator")
        n = len(gens[0])
        names = tuple(f"{prefix}{i + 1}" for i in range(n))
        return cls(n=n, variable_names=names, generators=tuple(gens))


@dataclass(frozen=True)
class HeightBoundReport:
    """Dimension of the rational exponent span, with its lattice data.

    span_dim == len(basis) == len(elementary_divisors) always holds; the
    bounds statement tightens to an equality only under the caller's
    unmixedness assertion.
    """

    span_dim: int
    unmixed: bool
    basis: tuple[ExponentVector, ...]
    elementary_divisors: tuple[int, ...]

    def statement(self) -> str:
        if self.unmixed:
            return f"height = {self.span_dim} (unmixed asserted; equals bigheight)"
        return f"height <= {self.span_dim} <= bigheight"


def height_bounds(p: BinomialPresentation, unmixed: bool = False) -> HeightBoundReport:
    """Height bounds for the ideal presented by `p`.

    One route to the exponent lattice: the Hermite basis of the generators,
    whose size r is the span dimension.  The r x r basis of its column lattice
    has the same elementary divisors, and its Smith form tracks r x r
    transforms, not n x n; it must find r divisors, confirming that the basis
    rows are independent.
    """
    basis = lattice_basis(p.generators)
    columns = IntegerMatrix.from_rows(lattice_basis(zip(*basis)), cols=len(basis))
    divisors = smith_normal_form(columns).divisors
    if len(divisors) != len(basis):
        raise InternalInvariantViolation(
            f"span dimension disagreement: basis {len(basis)}, "
            f"divisors {len(divisors)}"
        )
    return HeightBoundReport(
        span_dim=len(basis),
        unmixed=unmixed,
        basis=basis,
        elementary_divisors=divisors,
    )
