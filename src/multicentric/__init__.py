"""Multicentric calculus.

Functions M -> C^d over the roots of a monic polynomial p, multiplied so
that the scalar representation f^(z) = sum_j delta_j(z) f_j(p(z)) turns
the product into pointwise multiplication on every fiber p(z) = w.  On
top of that sit the spectral tools of the algebra (multiplication
matrices, characters, radicals, resolvent bounds) and a functional
calculus for matrices that needs nothing but function values, even at
eigenvalues with nontrivial Jordan structure.
"""

from .config import DEFAULT_TOL, MATCH_RTOL, Tolerances
from .errors import (
    AlgebraOverflow,
    CentersDegenerate,
    ContextMismatch,
    ConvergenceFailure,
    CriticalValue,
    DimensionTooLarge,
    InsufficientData,
    MalformedInput,
    MulticentricError,
    NoSimpleShiftFound,
    NotInvertible,
    NotSimplifying,
    NumericalFailure,
    SampleMiss,
    SingularMatrix,
    ValidationFailure,
)
from .polynomials import (
    Centers,
    Fiber,
    Polynomial,
    cluster_points,
    critical_points,
    fiber,
    fiber_batch,
    lagrange_basis,
    roots,
)
from .algebra import (
    AlgebraContext,
    CharacteristicCoeffs,
    ResolventReport,
    SampleSet,
    VectorFunction,
    algebra_power,
    box,
    character_residual,
    characteristic,
    characters_at,
    invert,
    mult_matrix,
    mult_matrices,
    op_norm,
    polyprod,
    polyprod_boxed,
    quotient_spectrum,
    radical_basis_at,
    resolvent_bound_check,
    spectral_radius_iter,
    spectrum,
    spectrum_multiset,
    sup_norm,
)
from .transform import (
    gelfand_eval,
    inverse_transform,
    reconstruct,
    scalar_representation,
)
from .calculus import (
    SpectralMappingReport,
    SpectrumData,
    TestMatrixSpec,
    chi_A,
    chi_similarity,
    ensure_simple_roots,
    hausdorff_distance,
    hermite_matrix_function,
    jordan_block,
    newton_hermite,
    random_similarity,
    simplifying_poly,
    simplifying_residual,
    spectral_mapping_check,
)
from .verify import SUITES, run_all, run_suite

__version__ = "0.1.0"

__all__ = [
    "DEFAULT_TOL", "MATCH_RTOL", "Tolerances",
    "MulticentricError", "ValidationFailure", "NumericalFailure",
    "SingularMatrix", "DimensionTooLarge", "ConvergenceFailure",
    "CentersDegenerate", "SampleMiss", "CriticalValue", "ContextMismatch",
    "NotInvertible", "AlgebraOverflow", "NotSimplifying",
    "NoSimpleShiftFound", "InsufficientData", "MalformedInput",
    "Polynomial", "Centers", "Fiber", "roots", "fiber", "fiber_batch",
    "cluster_points", "critical_points", "lagrange_basis",
    "AlgebraContext", "SampleSet", "VectorFunction",
    "CharacteristicCoeffs", "ResolventReport",
    "box", "polyprod", "polyprod_boxed", "algebra_power",
    "mult_matrix", "mult_matrices", "sup_norm", "op_norm",
    "spectrum", "spectrum_multiset", "spectral_radius_iter", "invert",
    "characteristic", "resolvent_bound_check", "characters_at",
    "character_residual", "radical_basis_at", "quotient_spectrum",
    "gelfand_eval", "inverse_transform", "reconstruct",
    "scalar_representation",
    "SpectrumData", "TestMatrixSpec", "SpectralMappingReport",
    "jordan_block", "random_similarity", "simplifying_poly",
    "simplifying_residual", "ensure_simple_roots", "newton_hermite",
    "chi_A", "hermite_matrix_function",
    "spectral_mapping_check", "chi_similarity", "hausdorff_distance",
    "SUITES", "run_suite", "run_all",
    "__version__",
]
