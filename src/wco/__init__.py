"""Hermitian weighted composition operators f -> psi * (f o phi) on weighted
Hardy spaces of the unit disk: classify a space, synthesize the symbols,
build the exact finite section and cross-check it through independent
oracles.  These names are the README's quick tour; the rest lives in the
submodules (`wco.spaces`, `wco.symbols`, `wco.operators`, `wco.verify`).
"""

import os

# The arithmetic is elementwise numpy and no hot path calls BLAS, yet an idle
# OpenBLAS worker busy-waits after numpy loads it.  OpenBLAS reads its thread
# count once, at that load, so the variable is set only around the import: a
# value the user set wins, and the environment (and every child process's)
# is left as it was.
if "OPENBLAS_NUM_THREADS" not in os.environ:
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    try:
        import numpy  # noqa: F401
    finally:
        del os.environ["OPENBLAS_NUM_THREADS"]

from .spaces import Binomial, classify_weights, family_weights, flat_weights, hardy_weights
from .symbols import synthesize
from .operators import build_matrix, hermitian_deviation, kernel_identity_residual
from .verify import full_report

__version__ = "0.1.0"
