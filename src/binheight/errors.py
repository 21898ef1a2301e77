"""Domain exceptions shared across the package.

Every failure a caller can provoke with bad (but well-formed) input derives
from DomainError; the CLI maps these to exit code 1 and prints the class name.
Malformed argv or unreadable/unparseable input files are not DomainErrors and
exit with code 2.
"""

import sys

__all__ = [
    "DomainError",
    "LengthMismatch",
    "SizeMismatch",
    "IndexOutOfRange",
    "EnumerationCapExceeded",
    "ZeroGenerator",
    "NotInKernel",
    "UnsupportedConfiguration",
    "ReductionUnavailable",
    "EmptyCollection",
    "NotConnected",
    "OutputTooLarge",
    "NotAnIdeal",
    "InvalidPresentation",
    "UnsaturatedLattice",
    "MalformedInput",
    "InternalInvariantViolation",
    "unprintable_digits",
]


class DomainError(Exception):
    """Base class for all domain-level failures."""


class LengthMismatch(DomainError):
    """Vectors that must share a length do not."""


class SizeMismatch(DomainError):
    """Index sets sized inconsistently with the requested operation."""


class IndexOutOfRange(DomainError):
    """A row, column, generator, or vertex index outside the valid range."""


class ZeroGenerator(DomainError):
    """A presentation was given the zero vector as a generator."""


class NotInKernel(DomainError):
    """An exponent vector is not in the kernel of the configuration matrix."""


class UnsupportedConfiguration(DomainError):
    """The configuration violates a precondition (negative entry, zero column)."""


class ReductionUnavailable(DomainError):
    """Divisibility reduction requested where semigroup membership is undecidable."""


class EmptyCollection(DomainError):
    """An operation that needs at least one cell was given none."""


class NotConnected(DomainError):
    """An operation defined only for connected collections got a disconnected one."""


class OutputTooLarge(DomainError):
    """A result integer has more decimal digits than the interpreter converts."""


class NotAnIdeal(DomainError):
    """A vertex subset is not downward closed in the poset."""


class InvalidPresentation(DomainError):
    """Type-level invariant of a presentation failed at construction."""


class UnsaturatedLattice(DomainError):
    """The generators' lattice is not saturated, so they present another ring."""


class MalformedInput(DomainError):
    """Structurally invalid domain object: loop edges, cyclic covers, and similar."""


class InternalInvariantViolation(DomainError):
    """Two routes that must agree did not.  Always a bug, never a user error."""


class EnumerationCapExceeded(DomainError):
    """An enumeration would exceed the configured cap.

    Carries `required` (the number of steps the enumeration would take, or
    with at_least a lower bound on it) and `cap` (the configured limit) so
    callers can re-run with a larger cap.
    """

    def __init__(self, required: int, cap: int, what: str = "enumeration", at_least=False):
        digits = unprintable_digits(required)
        count = f"a {digits}-digit number of" if digits else str(required)
        bound = "at least " if at_least else ""
        super().__init__(f"{what} needs {bound}{count} steps; cap is {cap}")
        self.required = required
        self.cap = cap


def unprintable_digits(x: int) -> int:
    """Decimal digits of x when str(x) would refuse it, else 0."""
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()  # 0: no limit
    x = abs(x)
    if not limit or x < 10**limit:
        return 0
    digits = x.bit_length() * 30103 // 100000  # never above the true count
    while x >= 10**digits:
        digits += 1
    return digits
