"""Hermitian candidate symbols and self-map parameter regions.

A Hermitian weighted composition operator on a hospitable space is pinned
down by three scalars: a0 = phi(0) (complex), a1 = phi'(0) (real), and
c = psi(0) (real).  The weight symbol is psi(z) = c k(conj(a0) z) and the
composition symbol is

    phi(z) = a0 + a1 beta(1)^2 z k'(conj(a0) z) / k(conj(a0) z),

which on every hospitable space is the linear-fractional map
a0 + a1 z / (1 - lam conj(a0) z): lam in (0, 1] for the binomial family and
lam = 0 (an affine phi) for the exponential one.  `synthesize` materializes
these closed forms; `synthesize_from_weights` builds the same shape over an
arbitrary weight sequence, which is what makes inhospitable spaces testable.
A lam < 1 pair is the lam = 1 pair at sqrt(lam) a0 seen through the
dilation z -> sqrt(lam) z, psi(z) = psi_1(sqrt(lam) z) and
phi(z) = phi_1(sqrt(lam) z) / sqrt(lam), a unitary equivalence under which
the two finite sections are the same matrix in exact arithmetic; so no
dilated pair is built, and a lam < 1 pair is judged on its own section.

The self-map region of phi is an exact closed interval in real a1
(`selfmap_interval`, for 0 <= lam <= 1), and sup |phi| over the disk has a
closed form for any a1 (`selfmap_excess`).  `mobius_circle_max`, |phi| on
the circle by direct evaluation, is the reference oracle of both.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .series import TruncatedSeries
from .spaces import (
    DomainError,
    NotHospitable,
    SpaceClass,
    WeightSequence,
    classify_weights,
)

__all__ = [
    "NONTRIVIAL",
    "ZERO_WEIGHT",
    "FIXED_ORIGIN",
    "RANK_ONE",
    "triviality",
    "SymbolPair",
    "synthesize",
    "synthesize_from_weights",
    "SelfMapInterval",
    "selfmap_interval",
    "selfmap_excess",
    "mobius_circle_max",
    "a1_from_fraction",
]

NONTRIVIAL = "nontrivial"
ZERO_WEIGHT = "zero-weight"
FIXED_ORIGIN = "fixed-origin"
RANK_ONE = "rank-one"

#: absolute slack for closed-interval membership at the self-map boundary
ENDPOINT_SLACK = 1e-12
#: uniform circle points of `mobius_circle_max`, besides the two extremal ones
CIRCLE_GRID = 4096


def triviality(a0: complex, a1: complex, c: complex) -> str:
    """The degenerate-case tag: zero weight, fixed origin, or rank one.

    c = 0 kills the operator; a0 = 0 forces psi constant and phi linear;
    a1 = 0 makes the operator rank one (evaluation at a0 times the kernel).
    """
    if c == 0:
        return ZERO_WEIGHT
    if a0 == 0:
        return FIXED_ORIGIN
    if a1 == 0:
        return RANK_ONE
    return NONTRIVIAL


@dataclass(frozen=True, eq=False)
class SymbolPair:
    """Materialized (psi, phi) for given parameters over a classified space.

    a1 and c are real for genuine Hermitian candidates; complex values are
    accepted so perturbation tests can demonstrate that realness is sharp.
    ``phi_pole`` is q = lam conj(a0) in the closed form
    phi = a0 + a1 z / (1 - q z) of a family pair (zero for the exponential
    family, lam = 0) and None when phi is only known as a series.  A psi or
    phi coefficient that is not finite raises DomainError naming it.
    """

    a0: complex
    a1: complex
    c: complex
    cls: SpaceClass
    psi: TruncatedSeries
    phi: TruncatedSeries
    trivial: str
    phi_pole: complex | None = None

    def __post_init__(self):
        for name, coeffs in (("psi", self.psi.coeffs), ("phi", self.phi.coeffs)):
            if not np.all(np.isfinite(coeffs)):
                j = int(np.argmin(np.isfinite(coeffs)))
                raise DomainError(f"{name} coefficient {j} is not finite: {coeffs[j]}")

    @property
    def order(self) -> int:
        return self.psi.order


def synthesize(
    cls: SpaceClass, a0: complex, a1: complex, c: complex, order: int
) -> SymbolPair:
    """Build the closed-form candidate symbols for a hospitable family:
    psi = c k(conj(a0) z) and phi = a0 + a1 z / (1 - lam conj(a0) z), so
    phi = a0 + a1 z on the exponential family (lam = 0).
    """
    a0, a1, c = complex(a0), complex(a1), complex(c)
    a0_bar = a0.conjugate()
    if isinstance(cls, NotHospitable):
        raise ValueError(
            "cannot synthesize family symbols for an inhospitable space; "
            "use synthesize_from_weights for the general shape"
        )
    with np.errstate(over="ignore", invalid="ignore"):  # refused by SymbolPair
        psi = c * cls.generating_series(order, a0_bar)
    pole = cls.lam * a0_bar
    phi_c = np.empty(order + 1, dtype=complex)
    phi_c[0] = a0
    phi_c[1:] = a1 * pole ** np.arange(order)
    phi = TruncatedSeries(phi_c)
    return SymbolPair(
        a0=a0, a1=a1, c=c, cls=cls, psi=psi, phi=phi,
        trivial=triviality(a0, a1, c), phi_pole=pole,
    )


def synthesize_from_weights(
    ws: WeightSequence,
    a0: complex,
    a1: complex,
    c: complex,
    cls: SpaceClass | None = None,
) -> SymbolPair:
    """Build the candidate symbol shape directly from a weight sequence.

    Uses the sequence's own generating coefficients, so it works for any
    space, hospitable or not.  phi comes from the series quotient
    z k'(conj(a0) z) / k(conj(a0) z), exact through the truncation order.
    """
    a0, a1, c = complex(a0), complex(a1), complex(c)
    n = ws.order
    if cls is None:
        cls = classify_weights(ws)
    khat = ws.generating_coefficients().astype(complex)
    a0_bar = a0.conjugate()
    with np.errstate(over="ignore", invalid="ignore"):
        kappa = TruncatedSeries(khat * a0_bar ** np.arange(n + 1))  # k(conj(a0) z)
        psi = c * kappa
        if a0 == 0:
            phi_c = np.zeros(n + 1, dtype=complex)
            if n >= 1:
                phi_c[1] = a1
            phi = TruncatedSeries(phi_c)
        else:
            quotient = kappa.z_times_derivative() / kappa  # conj(a0) z k'(..)/k(..)
            beta1_sq = float(ws.beta[1] ** 2)
            phi = (a1 * beta1_sq / a0_bar) * quotient
            phi_c = phi.coeffs.copy()
            phi_c[0] = a0
            phi = TruncatedSeries(phi_c)
    return SymbolPair(
        a0=a0, a1=a1, c=c, cls=cls, psi=psi, phi=phi, trivial=triviality(a0, a1, c)
    )


# ---------------------------------------------------------------------------
# self-map regions of the rational composition symbol


@dataclass(frozen=True)
class SelfMapInterval:
    """Exact a1-interval for phi to map the disk of radius rho into itself."""

    a0_mod: float
    lam: float
    rho: float
    a1_min: float
    a1_max: float
    admissible: bool

    def contains(self, a1: float) -> bool:
        return self.admissible and (
            self.a1_min - ENDPOINT_SLACK <= a1 <= self.a1_max + ENDPOINT_SLACK
        )


def _check_region_preconditions(a0: complex, lam: float, rho: float) -> float:
    if not (0.0 <= lam <= 1.0):
        raise DomainError(f"lam must satisfy 0 <= lam <= 1 (got {lam})")
    if rho <= 0.0:
        raise DomainError(f"rho must be positive (got {rho})")
    if lam > 0.0 and rho > 1.0 / math.sqrt(lam) + ENDPOINT_SLACK:
        raise DomainError(
            f"rho must satisfy rho <= 1/sqrt(lam) (got rho={rho}, 1/sqrt(lam)={1/math.sqrt(lam)})"
        )
    m = abs(complex(a0))
    if rho * m * lam >= 1.0:
        raise DomainError(
            f"rho*|a0|*lam must be < 1 (got {rho * m * lam}); phi is not analytic "
            "on the closed disk otherwise"
        )
    return m


def selfmap_interval(a0: complex, lam: float, rho: float = 1.0) -> SelfMapInterval:
    """Closed interval of real a1 for which a0 + a1 z/(1 - conj(a0) lam z)
    maps the disk of radius rho into itself.

    Endpoints: a1_min = (1 + |a0| lam rho)(|a0| - rho)/rho and
    a1_max = (rho - |a0|)(1 - |a0| lam rho)/rho.  At a0 = 0 these reduce to
    [-1, 1], the plain linear-map condition |a1| <= 1, and at lam = 0 (the
    affine phi of the exponential family) to |a0| + |a1| rho <= rho.  No
    interval exists unless |a0| < rho.
    """
    m = _check_region_preconditions(a0, lam, rho)
    admissible = m < rho
    a1_min = (1.0 + m * lam * rho) * (m - rho) / rho
    a1_max = (rho - m) * (1.0 - m * lam * rho) / rho
    return SelfMapInterval(
        a0_mod=m, lam=lam, rho=rho, a1_min=a1_min, a1_max=a1_max, admissible=admissible
    )


def selfmap_excess(a0: complex, a1: complex, q: complex) -> float:
    """sup |phi| - 1 over the unit disk for phi = a0 + a1 z/(1 - q z), |q| < 1
    (else DomainError: the pole is in the closed disk).  z -> z/(1 - q z)
    maps the unit circle onto the circle of centre conj(q)/(1 - |q|^2) and
    radius 1/(1 - |q|^2), so by the maximum principle sup |phi| is
    |a0 + a1 conj(q)/(1 - |q|^2)| + |a1|/(1 - |q|^2).
    """
    a0, a1, q = complex(a0), complex(a1), complex(q)
    if abs(q) >= 1.0:
        raise DomainError(
            f"rho*|a0|*lam must be < 1 (got {abs(q)}); phi is not analytic "
            "on the closed disk otherwise"
        )
    shrink = 1.0 - abs(q) ** 2
    return abs(a0 + a1 * q.conjugate() / shrink) + abs(a1) / shrink - 1.0


def a1_from_fraction(interval: SelfMapInterval, fraction: float) -> float:
    """Map a signed fraction in [-1, 1] onto the self-map interval.

    Positive fractions scale a1_max, negative ones scale a1_min, so every
    grid point is admissible by construction and +/-1 hit the endpoints.
    """
    if not interval.admissible:
        raise DomainError("the interval is empty (|a0| >= rho)")
    if not -1.0 <= fraction <= 1.0:
        raise ValueError(f"fraction must lie in [-1, 1] (got {fraction})")
    return fraction * interval.a1_max if fraction >= 0 else -fraction * interval.a1_min


def mobius_circle_max(a0: complex, a1: float, lam: float, rho: float = 1.0) -> float:
    """Maximum of |phi| over the circle |z| = rho, by direct evaluation.

    The grid is augmented with the two analytically-extremal directions
    (along +/- a0), where the maximum is attained; this keeps the oracle
    sharp at interval endpoints without a fine grid.
    """
    m = _check_region_preconditions(a0, lam, rho)
    t = 2.0 * np.pi * np.arange(CIRCLE_GRID) / CIRCLE_GRID
    z = rho * np.exp(1j * t)
    if m > 0:
        direction = complex(a0) / m
        z = np.concatenate([z, [rho * direction, -rho * direction]])
    vals = complex(a0) + a1 * z / (1.0 - np.conj(complex(a0)) * lam * z)
    return float(np.max(np.abs(vals)))
