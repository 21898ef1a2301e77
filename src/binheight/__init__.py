"""Exact height bounds and singularity checks for binomial ideals.

The package works entirely on exponent vectors with arbitrary-precision
integer arithmetic: no Groebner bases, no floating point.  Submodules:

* linalg: Bareiss elimination, Smith normal form, Hermite lattice bases;
* binomial: presentations and the height sandwich from the exponent span;
* toric: configurations, Jacobian ideals, isolated-singularity decisions;
* polyomino: inner 2-minors of cell collections and the rectangle criterion;
* bedge: edge binomials of graphs and cut-set heights;
* hibi: ideal lattices of posets and the chain-component criterion.
"""

from .binomial import (
    BinomialPresentation,
    HeightBoundReport,
    from_monomial_pair,
    height_bounds,
    split_signs,
)
from .errors import DomainError
from .linalg import (
    IncrementalRank,
    IntegerMatrix,
    SmithDecomposition,
    determinant,
    lattice_basis,
    minor,
    nonzero_minors,
    rational_rank,
    smith_normal_form,
)
from .toric import (
    IsolatedSingularityReport,
    JacobianIdealReport,
    ToricConfiguration,
    ToricIdealPresentation,
    binomial_degree,
    isolated_singularity_by_jacobian,
    jacobian_entry,
    jacobian_generators,
    semigroup_contains,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    "DomainError",
    "IntegerMatrix",
    "SmithDecomposition",
    "IncrementalRank",
    "rational_rank",
    "determinant",
    "minor",
    "nonzero_minors",
    "smith_normal_form",
    "lattice_basis",
    "BinomialPresentation",
    "HeightBoundReport",
    "from_monomial_pair",
    "split_signs",
    "height_bounds",
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
