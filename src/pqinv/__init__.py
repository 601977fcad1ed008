"""Generalized matrix inverses with prescribed idempotents.

Dense complex matrix kernels, subspace computations, the classical
generalized inverses (Moore-Penrose, group, Drazin), and the outer and
reflexive inverses whose range and kernel (or products) are prescribed
by a pair of idempotents, with existence diagnostics and four
independent representation routes.
"""

from .densela import (
    DEFAULT_TOL,
    Tolerances,
    as_matrix,
    eigenvalues,
    matrix_exp,
    rank,
    rank_factorization,
    solve_left,
    solve_right,
)
from .errors import (
    NonexistentInverseError,
    NumericalError,
    ShapeError,
    SpectrumError,
)
from .ginv import (
    DrazinResult,
    drazin_inverse,
    gi_idempotents,
    group_inverse,
    inner_inverse,
    moore_penrose,
    reflexive_inverse,
)
from .prescribed import (
    ExistenceReport,
    PqProblem,
    PqResult,
    diagnose,
    drazin_as_outer,
    group_formula,
    inner_formula,
    integral_formula,
    limit_formula,
    matrix_with_range_kernel,
    moore_penrose_as_outer,
    one_two_inverse,
    one_two_inverse_strict,
    outer_inverse,
    outer_inverse_strict,
    represent,
)
from .subspace import (
    Subspace,
    contains,
    equals,
    gap,
    image,
    intersect,
    is_direct_sum_all,
    kernel_of,
    meets_trivially,
    range_of,
    sum_of,
)
from .verify import SuiteReport, fuzz, run_counterexample_suite

__version__ = "0.1.0"

__all__ = [
    "DEFAULT_TOL",
    "Tolerances",
    "as_matrix",
    "solve_right",
    "solve_left",
    "rank",
    "rank_factorization",
    "eigenvalues",
    "matrix_exp",
    "ShapeError",
    "NumericalError",
    "SpectrumError",
    "NonexistentInverseError",
    "Subspace",
    "range_of",
    "kernel_of",
    "image",
    "intersect",
    "sum_of",
    "meets_trivially",
    "is_direct_sum_all",
    "contains",
    "equals",
    "gap",
    "DrazinResult",
    "moore_penrose",
    "inner_inverse",
    "reflexive_inverse",
    "group_inverse",
    "drazin_inverse",
    "gi_idempotents",
    "PqProblem",
    "ExistenceReport",
    "PqResult",
    "diagnose",
    "matrix_with_range_kernel",
    "outer_inverse",
    "outer_inverse_strict",
    "one_two_inverse",
    "one_two_inverse_strict",
    "represent",
    "group_formula",
    "inner_formula",
    "limit_formula",
    "integral_formula",
    "moore_penrose_as_outer",
    "drazin_as_outer",
    "SuiteReport",
    "run_counterexample_suite",
    "fuzz",
    "__version__",
]
