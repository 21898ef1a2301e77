"""Domain exceptions shared across the package.

Every failure a caller can provoke with bad (but well-formed) input derives
from DomainError; the CLI maps these to exit code 1 and prints the class name.
Malformed argv or unreadable/unparseable input files are not DomainErrors and
exit with code 2.
"""

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
    "LatticeTooLarge",
    "NotAnIdeal",
    "InvalidPresentation",
    "MalformedInput",
    "InternalInvariantViolation",
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


class LatticeTooLarge(DomainError):
    """The ideal lattice of the poset exceeds the configured cap."""


class NotAnIdeal(DomainError):
    """A vertex subset is not downward closed in the poset."""


class InvalidPresentation(DomainError):
    """Type-level invariant of a presentation failed at construction."""


class MalformedInput(DomainError):
    """Structurally invalid domain object: loop edges, cyclic covers, and similar."""


class InternalInvariantViolation(DomainError):
    """Two routes that must agree did not.  Always a bug, never a user error."""


class EnumerationCapExceeded(DomainError):
    """An enumeration would exceed the configured cap.

    Carries `required` (the number of steps the enumeration would take) and
    `cap` (the configured limit) so callers can re-run with a larger cap.
    """

    def __init__(self, required: int, cap: int, what: str = "enumeration"):
        super().__init__(f"{what} needs {required} steps; cap is {cap}")
        self.required = required
        self.cap = cap
