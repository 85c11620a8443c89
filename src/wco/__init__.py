"""Numerical toolkit for Hermitian weighted composition operators on
weighted Hardy spaces of the unit disk.

The package classifies which weight sequences admit nontrivial Hermitian
operators of the form f -> psi * (f o phi), synthesizes the candidate
symbols, realizes the operators as exact finite-section matrices, and
verifies the characterization through several independent numerical
oracles (matrix symmetry, kernel identities, a generating-function ODE,
and integral-norm quadratures).
"""

from .series import (
    OrderMismatchError,
    TruncatedSeries,
    binomial_series,
    compose_poly,
    exp_series,
    monomial,
    one,
    polynomial,
    series_from_json,
    series_to_json,
    zero,
)
from .spaces import (
    Binomial,
    CoefficientMismatch,
    CLASSIFICATION_TOL,
    DerivativeNormBounds,
    DomainError,
    Exponential,
    NotHospitable,
    QuadratureError,
    SpaceClass,
    WeightSequence,
    bergman_norm_quadrature,
    bergman_weights,
    classify_space,
    classify_weights,
    derivative_norm_bounds,
    dirichlet_weights,
    family_weights,
    flat_weights,
    fock_norm_quadrature,
    fock_weights,
    hardy_norm_quadrature,
    hardy_weights,
    inner_product,
    kernel,
    kernel_d,
    norm,
    verify_candidate,
    weights_from_generating,
    weights_from_json,
    weights_to_json,
)
from .symbols import (
    SelfMapInterval,
    SymbolPair,
    a1_from_fraction,
    check_sqrt_lambda_lift,
    dilate,
    is_selfmap,
    mobius_circle_max,
    selfmap_interval,
    synthesize,
    synthesize_from_weights,
    triviality,
)
from .operators import (
    MomentResiduals,
    OperatorMatrix,
    adjoint_on_kernel,
    build_matrix,
    conjugation_check,
    finite_section_norm,
    fock_bound,
    hermitian_deviation,
    kernel_identity_residual,
    kernel_tail_bound,
    moment_conditions,
)
from .operators import apply as apply_operator
from .verify import (
    Check,
    NormEquivalence,
    RecoveredSymbols,
    VerificationReport,
    full_report,
    norm_equivalence_check,
    ode_residual,
    recover_symbols,
)

__version__ = "0.1.0"
