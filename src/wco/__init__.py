"""Hermitian weighted composition operators f -> psi * (f o phi) on weighted
Hardy spaces of the unit disk: classify a space, synthesize the symbols,
build the exact finite section and cross-check it through independent
oracles.  These names are the README's quick tour; the rest lives in the
submodules (`wco.spaces`, `wco.symbols`, `wco.operators`, `wco.verify`).
"""

from .spaces import Binomial, classify_weights, family_weights, flat_weights, hardy_weights
from .symbols import synthesize
from .operators import build_matrix, hermitian_deviation, kernel_identity_residual
from .verify import full_report

__version__ = "0.1.0"
