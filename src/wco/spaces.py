"""Weight sequences, space classification, kernels, and norms.

A weighted Hardy space is described by its weight sequence beta, with
beta(0) = 1 and beta(j) = ||z^j||.  The reciprocal squares 1/beta(j)^2 are
the coefficients of the space's generating function k, which in turn
produces the reproducing kernels K_w(z) = k(conj(w) z).

Classification (`classify_weights`) reads the coefficient ratios
t_j = (j + 1) khat(j + 1)/khat(j) = (j + 1) (beta(j)/beta(j + 1))^2, which
the two hospitable families make affine in j:

* exponential: k(z) = exp(z / beta(1)^2), t_j = 1/beta(1)^2 (a Fock space);
* binomial: k(z) = (1 - lam z)**(-eta), t_j = lam (eta + j) with lam in
  (0, 1] (Hardy, weighted Bergman, and their lam < 1 dilates).

The first slope t_1 - t_0 is the paper's two-weight discriminant
lam = (gamma - 1)/beta(1)^2, gamma = 2 beta(1)^4 / beta(2)^2: it picks the
family, or why the space is inhospitable to nontrivial Hermitian weighted
composition operators; `verify_candidate` then holds every ratio to the
family's.
"""

from __future__ import annotations

import functools
import math
import sys
from dataclasses import dataclass

import numpy as np

from .series import (
    TruncatedSeries,
    binomial_series,
    common_order,
    exp_series,
    is_json_number,
    json_order,
    require_finite,
)

__all__ = [
    "DomainError",
    "QuadratureError",
    "WeightSequence",
    "Exponential",
    "Binomial",
    "NotHospitable",
    "SpaceClass",
    "CoefficientMismatch",
    "CLASSIFICATION_TOL",
    "verify_candidate",
    "classify_weights",
    "family_weights",
    "hardy_weights",
    "bergman_weights",
    "fock_weights",
    "dirichlet_weights",
    "flat_weights",
    "kernel",
    "norm",
    "integral_norm",
    "fock_norm_quadrature",
    "bergman_norm_quadrature",
    "hardy_norm_quadrature",
    "DerivativeNormBounds",
    "derivative_norm_bounds",
    "weights_from_json",
    "space_class_to_json",
]


class DomainError(ValueError):
    """An argument lies outside the mathematical domain of the operation."""


class QuadratureError(RuntimeError):
    """A quadrature configuration cannot deliver the requested accuracy."""


#: tolerance of the first-slope decisions (gamma = 1, lam = 0, lam = 1): the
#: families are well separated, and anything this close to a boundary sits on it
CLASSIFICATION_TOL = 1e-9
#: relative tolerance of `verify_candidate`'s ratio-by-ratio fit
FIT_TOL = 1e-10
#: radial Gauss-Legendre nodes of the Gaussian-plane quadrature
QUAD_RADIAL_NODES = 200


# ---------------------------------------------------------------------------
# weight sequences


@dataclass(frozen=True, eq=False)
class WeightSequence:
    """Monomial norms beta(0..N): beta(0) = 1, beta(j) > 0, 1/beta(j)^2 a normal double."""

    beta: np.ndarray

    def __post_init__(self):
        b = np.array(self.beta, dtype=float)
        if b.ndim != 1 or b.size == 0:
            raise ValueError("beta must be a nonempty one-dimensional sequence")
        if not np.all(np.isfinite(b)):
            raise ValueError("all weights must be finite")
        if abs(b[0] - 1.0) > 1e-12:
            raise ValueError(f"beta(0) must be 1 (got {b[0]})")
        b[0] = 1.0
        if np.any(b <= 0.0):
            raise ValueError("all weights must be strictly positive")
        with np.errstate(over="ignore", under="ignore", divide="ignore"):
            khat = 1.0 / b**2
        bad = np.flatnonzero((khat < sys.float_info.min) | (khat > sys.float_info.max))
        if bad.size:
            j = int(bad[0])
            raise ValueError(f"1/beta({j})^2 = {khat[j]:.3g} is outside the floating-point range")
        b.setflags(write=False)
        object.__setattr__(self, "beta", b)

    @property
    def order(self) -> int:
        return self.beta.size - 1

    def generating_coefficients(self) -> np.ndarray:
        """Coefficients 1/beta(j)^2 of the generating function."""
        return 1.0 / self.beta**2


def family_weights(cls: "SpaceClass", order: int) -> WeightSequence:
    """Weight sequence of a hospitable family member: 1/beta(j)^2 are the
    coefficients of its generating function, which must all be finite,
    positive normal doubles (a coefficient that overflows or underflows to 0
    is refused, and so is a subnormal one, which has lost the bits that tie
    its weight to the family)."""
    if not isinstance(cls, (Exponential, Binomial)):
        raise ValueError("family weights exist only for hospitable classes")
    with np.errstate(over="ignore", invalid="ignore"):
        khat = cls.generating_series(order).coeffs.real
    bad = np.flatnonzero(~(np.isfinite(khat) & (khat >= sys.float_info.min)))
    if bad.size:  # the first index that fails, with the first test it fails
        j, value = int(bad[0]), khat[bad[0]]
        what = "finite" if not np.isfinite(value) else "positive" if value <= 0.0 else "normal"
        raise ValueError(f"generating coefficient {j} is not {what}: {value}")
    return WeightSequence(1.0 / np.sqrt(khat))


def hardy_weights(order: int) -> WeightSequence:
    """beta(j) = 1: the classical Hardy space of the disk."""
    return WeightSequence(np.ones(order + 1))


def bergman_weights(eta: float, order: int) -> WeightSequence:
    """Weights of the space with generating function (1-z)**(-eta)."""
    return family_weights(Binomial(lam=1.0, eta=float(eta)), order)


def fock_weights(b: float, order: int) -> WeightSequence:
    """beta(j) = sqrt(j!) * b**j: the Gaussian-integral space with scale b."""
    if b <= 0:
        raise ValueError("the scale b must be positive")
    return family_weights(Exponential(b_sq=b * b), order)


def dirichlet_weights(order: int) -> WeightSequence:
    """beta(j)^2 = j + 1: the classical Dirichlet space (a rejection case)."""
    return WeightSequence(np.sqrt(np.arange(order + 1) + 1.0))


def flat_weights(order: int, level: float = 2.0) -> WeightSequence:
    """beta(0) = 1 and beta(j) = level for j >= 1 (norm-equivalent to Hardy)."""
    b = np.full(order + 1, float(level))
    b[0] = 1.0
    return WeightSequence(b)


# ---------------------------------------------------------------------------
# classification


@dataclass(frozen=True)
class Exponential:
    """k(z) = exp(z / b_sq), a Fock space of scale sqrt(b_sq): the lam = 0
    end of the linear-fractional family (``lam`` is a class attribute)."""

    b_sq: float
    gamma: float = 1.0

    variant = "Exponential"
    lam = 0.0

    def __post_init__(self):
        if not sys.float_info.min <= self.b_sq <= sys.float_info.max:
            raise ValueError(f"b_sq must be a positive normal double (got {self.b_sq})")

    def generating_series(self, order: int, scale: complex = 1.0) -> TruncatedSeries:
        """k(scale z) truncated at ``order``."""
        return exp_series(scale / self.b_sq, order)

    def coefficient_ratio(self, j):
        """Ratio of generating coefficients j + 1 and j (j an int or an array)."""
        return 1.0 / (self.b_sq * (j + 1))


@dataclass(frozen=True)
class Binomial:
    """k(z) = (1 - lam z)**(-eta) with 0 < lam <= 1 and eta = 1/(lam b^2).

    ``gamma`` defaults to its closed form (eta + 1)/eta; `classify_weights`
    passes the value it measured from the weights instead.
    """

    lam: float
    eta: float
    gamma: float | None = None

    variant = "Binomial"

    def __post_init__(self):
        if not self.eta > 0.0:
            raise ValueError(f"eta must be positive (got {self.eta})")
        if self.gamma is None:
            object.__setattr__(self, "gamma", (self.eta + 1.0) / self.eta)

    @property
    def normal_form(self) -> bool:
        """lam = 1 (to 1e-12): the undilated kernel (1 - z)**(-eta)."""
        return abs(self.lam - 1.0) < 1e-12

    def generating_series(self, order: int, scale: complex = 1.0) -> TruncatedSeries:
        """k(scale z) truncated at ``order``."""
        return binomial_series(self.lam * scale, self.eta, order)

    def coefficient_ratio(self, j):
        """Ratio of generating coefficients j + 1 and j (j an int or an array)."""
        return self.lam * (self.eta + j) / (j + 1)


@dataclass(frozen=True)
class CoefficientMismatch:
    """The first generating coefficient off the family: ``expected`` from the
    weights, ``found`` = the previous one times the family's ratio, ``gap`` >
    `FIT_TOL` between the two ratios (1 for one outside the normal range)."""
    index: int
    expected: float
    found: float
    gap: float


@dataclass(frozen=True)
class NotHospitable:
    """No nontrivial Hermitian weighted composition operator can exist."""

    reason: str  # "lambda-negative" | "lambda-exceeds-one" | "coefficient-mismatch"
    gamma: float
    lam: float
    mismatch: CoefficientMismatch | None = None

    variant = "NotHospitable"


SpaceClass = Exponential | Binomial | NotHospitable


def verify_candidate(ws: WeightSequence, cls: SpaceClass) -> CoefficientMismatch | None:
    """Hold every ratio khat(j + 1)/khat(j) = (beta(j)/beta(j + 1))^2 of the
    weights to the family's `coefficient_ratio(j)`: None when each is a
    normal double within relative `FIT_TOL` of it, else the first departure."""
    if isinstance(cls, NotHospitable):
        raise ValueError("cannot verify an inhospitable classification")
    with np.errstate(over="ignore", invalid="ignore"):
        actual = (ws.beta[:-1] / ws.beta[1:]) ** 2
        family = cls.coefficient_ratio(np.arange(ws.order))
        gap = np.abs(actual - family) / np.maximum(actual, family)
        found = ws.generating_coefficients()[:-1] * family  # inf past the double range
    off = ~((gap <= FIT_TOL) & (actual >= sys.float_info.min))
    if not np.any(off):
        return None
    j = int(np.argmax(off))
    return CoefficientMismatch(
        index=j + 1,
        expected=float(1.0 / ws.beta[j + 1] ** 2),
        found=float(found[j]),
        gap=float(np.fmin(gap[j], 1.0)),  # NaN for an infinite ratio, whose gap is 1
    )


def classify_weights(ws: WeightSequence) -> SpaceClass:
    """Classify by the coefficient ratios t_j (module docstring).

    The first slope lam = t_1 - t_0 = (gamma - 1)/beta(1)^2 decides: gamma = 1
    or lam = 0 (to `CLASSIFICATION_TOL`) is exponential, lam in (0, 1] is
    binomial, anything else inhospitable.  Past order 2 every ratio must fit
    (`verify_candidate`); a binomial space then takes lam from the secant
    (t_(N-1) - t_0)/(N - 1), which cancels N - 1 times fewer ulps than the
    first slope (about eta of them), and eta = t_0/lam.
    """
    if ws.order < 2:
        raise ValueError("classification needs weights up to index 2")
    beta1, beta2 = float(ws.beta[1]), float(ws.beta[2])
    b1_sq = beta1 * beta1
    gamma = 2.0 * b1_sq * b1_sq / (beta2 * beta2)
    lam = (gamma - 1.0) / b1_sq
    if not (math.isfinite(gamma) and math.isfinite(lam)):
        raise ValueError(
            f"weights {beta1!r}, {beta2!r} put gamma or lambda outside the floating-point range"
        )
    if abs(gamma - 1.0) <= CLASSIFICATION_TOL or abs(lam) <= CLASSIFICATION_TOL:
        cls = Exponential(b_sq=b1_sq, gamma=gamma)
    elif lam < 0.0:
        return NotHospitable(reason="lambda-negative", gamma=gamma, lam=lam)
    elif lam > 1.0 + CLASSIFICATION_TOL:
        return NotHospitable(reason="lambda-exceeds-one", gamma=gamma, lam=lam)
    else:
        lam = min(lam, 1.0)
        cls = Binomial(lam=lam, eta=1.0 / (lam * b1_sq), gamma=gamma)
    if ws.order > 2:  # two ratios always lie on one line
        mismatch = verify_candidate(ws, cls)
        if mismatch is not None:
            return NotHospitable("coefficient-mismatch", gamma, cls.lam, mismatch)
        if isinstance(cls, Binomial):
            t_0 = float((1.0 / ws.beta[1]) ** 2)
            t_last = float(ws.order * (ws.beta[-2] / ws.beta[-1]) ** 2)
            lam = min((t_last - t_0) / (ws.order - 1), 1.0)
            cls = Binomial(lam=lam, eta=t_0 / lam, gamma=gamma)
    return cls


# ---------------------------------------------------------------------------
# kernels and norms


def kernel(w: complex, ws: WeightSequence) -> TruncatedSeries:
    """Reproducing kernel K_w at the order of the weights: coefficient j is
    conj(w)^j / beta(j)^2."""
    w = complex(w)
    if abs(w) >= 1.0:
        raise DomainError(f"kernel points must lie in the open unit disk (|w| = {abs(w)})")
    return TruncatedSeries(np.conj(w) ** np.arange(ws.order + 1) / ws.beta**2)


def norm(f: TruncatedSeries, ws: WeightSequence) -> float:
    """The H^2(beta) norm sqrt(sum |f(j)|^2 beta(j)^2)."""
    common_order(series=f.order, weights=ws.order)
    with np.errstate(over="ignore"):  # a norm beyond the double range is inf, quietly
        return float(np.sqrt(np.sum(np.abs(f.coeffs) ** 2 * ws.beta**2)))


# ---------------------------------------------------------------------------
# integral norms (independent quadrature oracles)


def _eval_on_grid(f: TruncatedSeries, radii: np.ndarray, n_angular: int) -> np.ndarray:
    """Angular means of |f|^2 on circles of the given radii.

    Evaluates f pointwise by Horner on the full polar grid; deliberately
    does *not* shortcut through the coefficient formula, so the quadrature
    stays an independent check on the series-side norms.  Horner starts at
    the last nonzero coefficient: the zero padding of a low-degree f would
    only multiply zeros, and the result is bitwise the same.  The steps run
    in place, so the grid and the values are the only arrays of its size.
    """
    theta = 2.0 * np.pi * np.arange(n_angular) / n_angular
    grid = radii[:, None] * np.exp(1j * theta)[None, :]
    vals = np.zeros_like(grid)
    # a value beyond the double range comes back as inf or nan, with no warning
    with np.errstate(over="ignore", invalid="ignore"):
        for c in np.trim_zeros(f.coeffs, "b")[::-1]:
            vals *= grid
            vals += c
        return np.mean(vals.real**2 + vals.imag**2, axis=1)


def _degree(f: TruncatedSeries) -> int:
    """deg f: the index of its last nonzero coefficient (0 for f = 0), not its order."""
    return max(np.trim_zeros(f.coeffs, "b").size - 1, 0)


def _angular_nodes(f: TruncatedSeries) -> int:
    # on a circle |f|^2 has angular modes up to +/- deg f; a uniform rule
    # with more than 2 deg f points integrates it exactly
    return 2 * _degree(f) + 1


def _jacobi_scaled(n: int, alpha: float, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """P_n(x) / P_n(1) and its derivative for the Jacobi polynomial
    P_n = P_n^(alpha, 0), by the three-term recurrence.

    Every P_k is divided by P_k(1) = binom(k + alpha, k), so the values stay
    of moderate size for large n and alpha.
    """
    p_prev, d_prev = np.ones_like(x), np.zeros_like(x)
    p = ((alpha + 2.0) * x + alpha) / (2.0 * (alpha + 1.0))
    d = np.full_like(x, (alpha + 2.0) / (2.0 * (alpha + 1.0)))
    for k in range(2, n + 1):
        den = 2.0 * (k + alpha) ** 2 * (2 * k + alpha - 2.0)
        slope = (2 * k + alpha - 1.0) * (2 * k + alpha) * (2 * k + alpha - 2.0) / den
        shift = (2 * k + alpha - 1.0) * alpha * alpha / den
        back = 2.0 * (k - 1) ** 2 * (2 * k + alpha) / den
        line = slope * x + shift
        p_prev, p = p, line * p - back * p_prev
        d_prev, d = d, slope * p_prev + line * d - back * d_prev
    return p, d


@functools.lru_cache(maxsize=32)
def _gauss_jacobi(n: int, alpha: float) -> tuple[np.ndarray, np.ndarray]:
    """n-point Gauss rule on [0, 1] for the weight (1 - s)^alpha, alpha > -1.

    Returns increasing nodes s and positive weights w (read-only, shared by
    every caller) with sum w g(s) = integral_0^1 (1 - s)^alpha g(s) ds for
    every polynomial g of degree below 2n.  The nodes are the roots of
    P_n^(alpha, 0)(2s - 1), found by simultaneous (Aberth) Newton steps
    from cos((k + alpha/2 - 1/4) pi / (n + (alpha + 1)/2)): the repulsion
    term keeps each iterate on its own root, where plain Newton from the
    same start makes two iterates meet (n = 200 at eta = alpha + 2 = 10).
    The weights are the closed form 1/((1 - x^2) P_n'(x)^2) at x = 2s - 1,
    with P_n(1) from math.lgamma.  A Golub-Welsch eigensolve reads the
    weights off eigenvector components, accurate only against the largest
    weight, so the tiny weights near s = 1 that carry the high moments are
    lost: at n = 200 its Beta moments up to degree 150 are off by 4e-11
    relative at alpha = 8 and by 0.12 at alpha = 28.

    Against 40-digit mpmath roots at n = 200 and eta from 1.01 to 30, the
    nodes are within 6e-17 and the weights within 7e-13 relative; the
    largest errors sit at the two end nodes.
    """
    k = np.arange(1, n + 1)
    x = np.cos((k + 0.5 * alpha - 0.25) * np.pi / (n + 0.5 * (alpha + 1.0)))
    for _ in range(200):
        p, d = _jacobi_scaled(n, alpha, x)
        newton = p / d
        gaps = x[:, None] - x[None, :]
        np.fill_diagonal(gaps, np.inf)
        moved = x - newton / (1.0 - newton * np.sum(1.0 / gaps, axis=1))
        # every root lies in (-1, 1); a step past an end goes halfway to it
        moved = np.where(np.abs(moved) < 1.0, moved, 0.5 * (x + np.sign(moved)))
        step = np.max(np.abs(moved - x))
        x = moved
        if step <= 1e-15:
            break
    else:
        raise QuadratureError(f"Gauss-Jacobi nodes did not converge: n={n}, alpha={alpha}")
    x = np.sort(x)
    _, d = _jacobi_scaled(n, alpha, x)
    log_p_at_1 = math.lgamma(n + alpha + 1.0) - math.lgamma(alpha + 1.0) - math.lgamma(n + 1.0)
    weights = np.exp(-2.0 * (log_p_at_1 + np.log(np.abs(d))) - np.log((1.0 - x) * (1.0 + x)))
    nodes = 0.5 * (x + 1.0)
    nodes.setflags(write=False)
    weights.setflags(write=False)
    return nodes, weights


def fock_norm_quadrature(f: TruncatedSeries, b_sq: float) -> float:
    """Gaussian-integral norm of a polynomial: the radial-angular quadrature of
    (1/(pi b^2)) * integral |f(z)|^2 exp(-|z|^2/b^2) dA over the plane.

    The radial factor is integrated in u = |z|^2 / b^2 by the
    `QUAD_RADIAL_NODES`-point Gauss-Legendre rule (`_gauss_jacobi` with
    alpha = 0; nodes within 6e-17 of 40-digit roots at n = 200) on
    [0, 60 + 2 N]; the dropped tail is bounded by `_fock_tail_bound` and
    must be negligible relative to the result, else a QuadratureError
    reports the node configuration.
    """
    if b_sq <= 0:
        raise DomainError("b_sq must be positive")
    n_angular = _angular_nodes(f)
    u_max = 60.0 + 2.0 * f.order
    s, w = _gauss_jacobi(QUAD_RADIAL_NODES, 0.0)
    u = u_max * s
    b = math.sqrt(b_sq)
    means = _eval_on_grid(f, b * np.sqrt(u), n_angular)
    value = float(u_max * np.sum(w * np.exp(-u) * means))
    tail = _fock_tail_bound(f, b, u_max)
    if not np.isfinite(value) or tail > 1e-9 * max(value, 1e-300):
        raise QuadratureError(
            f"Gaussian norm quadrature not converged: nodes {QUAD_RADIAL_NODES}x{n_angular}, "
            f"radial cutoff u={u_max:.1f}, tail bound {tail:.3e}, value {value:.3e}"
        )
    return math.sqrt(value)


def _log_upper_gamma_bound(s: np.ndarray, u: float) -> np.ndarray:
    """log of u^(s-1) e^(-u) u/(u - s + 1), which bounds the upper
    incomplete gamma function Gamma(s, u) from above for 1 <= s < u + 1
    (substitute t = u + tau and use (1 + tau/u)^(s-1) <= exp((s-1) tau/u))."""
    return s * math.log(u) - u - np.log(u - s + 1.0)


def _fock_tail_bound(f: TruncatedSeries, b: float, u_max: float) -> float:
    """Upper bound for the dropped radial tail of the Gaussian integral:
    the sum over p, q of |f_p| |f_q| b^(p+q) Gamma((p+q)/2 + 1, u_max).

    Terms are grouped by m = p + q (a convolution of the moduli) and summed
    from log space, so neither b^m nor Gamma(s) overflows.  The incomplete
    gamma bound applies because u_max = 60 + 2N exceeds s - 1 <= N.
    """
    mags = np.abs(f.coeffs)
    grouped = np.convolve(mags, mags)
    m = np.flatnonzero(grouped)
    log_terms = (
        np.log(grouped[m]) + m * math.log(b) + _log_upper_gamma_bound(0.5 * m + 1.0, u_max)
    )
    return float(np.sum(np.exp(log_terms)))


def bergman_norm_quadrature(f: TruncatedSeries, eta: float) -> float:
    """Disk-integral norm for the eta > 1 family:
    (eta - 1)/pi * integral |f(z)|^2 (1 - |z|^2)^(eta-2) dA over the disk.

    The angular mean of |f|^2 on |z|^2 = s has degree deg f in s, so the
    (deg f // 2 + 1)-point Gauss-Jacobi rule for (1 - s)^(eta - 2)
    (`_gauss_jacobi`) integrates it exactly, boundary singularity (eta < 2)
    included; so few nodes also build at large eta (4 at eta = 1200).
    The eta <= 1 spaces have no such integral form and are refused; their
    norms are series-side only, cross-checked by `derivative_norm_bounds`.
    """
    if eta <= 1.0:
        raise DomainError(
            "the disk-integral norm requires eta > 1; "
            "for eta <= 1 use the series norm and the derivative sandwich"
        )
    n_radial, n_angular = _degree(f) // 2 + 1, _angular_nodes(f)
    s, w = _gauss_jacobi(n_radial, eta - 2.0)
    means = _eval_on_grid(f, np.sqrt(s), n_angular)
    value = float((eta - 1.0) * np.sum(w * means))
    if not np.isfinite(value):
        raise QuadratureError(
            f"disk norm quadrature failed: nodes {n_radial}x{n_angular}, eta={eta}"
        )
    return math.sqrt(value)


def hardy_norm_quadrature(f: TruncatedSeries) -> float:
    """Circle-average norm (1/2pi) * integral |f(e^it)|^2 dt, by the uniform
    rule, which is exact once the node count exceeds twice the degree."""
    mean = _eval_on_grid(f, np.ones(1), _angular_nodes(f))[0]
    return math.sqrt(float(mean))


def integral_norm(cls: SpaceClass, f: TruncatedSeries) -> tuple[str, float]:
    """The norm of ``f`` as an integral, for the family spaces that have one.

    Returns the integration domain and the norm: "gaussian-plane" for the
    exponential family, and for lam = 1 "disk" when eta > 1 or "circle" when
    eta = 1.  Every other space has no integral form and raises DomainError.
    """
    if isinstance(cls, Exponential):
        return "gaussian-plane", fock_norm_quadrature(f, cls.b_sq)
    if isinstance(cls, Binomial) and cls.normal_form:
        if cls.eta > 1.0 + 1e-9:
            return "disk", bergman_norm_quadrature(f, cls.eta)
        if abs(cls.eta - 1.0) <= 1e-9:
            return "circle", hardy_norm_quadrature(f)
        raise DomainError(
            "no integral norm for eta < 1; use the series norm "
            "(cross-checked by the derivative sandwich)"
        )
    raise DomainError(
        "integral norms are available for the fock family and the "
        "lam = 1 binomial family only"
    )


# ---------------------------------------------------------------------------
# derivative-norm sandwich for the eta < 1 spaces


@dataclass(frozen=True)
class DerivativeNormBounds:
    lower: float
    value: float
    upper: float


def derivative_norm_bounds(f: TruncatedSeries, eta: float) -> DerivativeNormBounds:
    """Two-sided bounds tying ||f'|| in the eta+2 space to the eta space norm.

    For 0 < eta < 1 the derivative f' lands in the (integral-normable)
    eta + 2 space, and with T = sum_{j>=1} |f(j)|^2 beta_eta(j)^2,

        eta (eta + 1) / 2 * T  <=  ||f'||^2_{eta+2}  <=  (eta + 1) * T.

    ``value`` is the middle quantity computed by the series formula; the
    report's ``derivative-norm-sandwich`` check judges whether it lies
    between the two bounds.
    """
    if not (0.0 < eta < 1.0):
        raise DomainError(f"the derivative sandwich applies for 0 < eta < 1 (got {eta})")
    n = f.order
    k_eta = binomial_series(1.0, eta, n).coeffs.real
    t_weighted = float(np.sum(np.abs(f.coeffs[1:]) ** 2 / k_eta[1:]))
    if n >= 1:
        k_eta2 = binomial_series(1.0, eta + 2.0, n - 1).coeffs.real
        fprime = f.coeffs[1:] * np.arange(1, n + 1)
        value = float(np.sum(np.abs(fprime) ** 2 / k_eta2))
    else:
        value = 0.0
    lower = 0.5 * eta * (eta + 1.0) * t_weighted
    upper = (eta + 1.0) * t_weighted
    return DerivativeNormBounds(lower=lower, value=value, upper=upper)


# ---------------------------------------------------------------------------
# JSON wire formats


def weights_from_json(obj) -> WeightSequence:
    """Weights from the JSON shape {"order": N, "beta": [...]}."""
    order = json_order(obj, "weight file")
    beta = obj.get("beta")
    if not isinstance(beta, list) or not all(map(is_json_number, beta)):
        raise ValueError('weight file key "beta" must be a list of numbers')
    require_finite(beta, "beta", "weight file")
    if len(beta) != order + 1:
        raise ValueError("weight count does not match the declared order")
    return WeightSequence(np.asarray(beta, dtype=float))


def space_class_to_json(cls: SpaceClass) -> dict:
    if isinstance(cls, Exponential):
        return {"variant": "Exponential", "b_sq": cls.b_sq, "gamma": cls.gamma}
    if isinstance(cls, Binomial):
        return {
            "variant": "Binomial",
            "lambda": cls.lam,
            "eta": cls.eta,
            "gamma": cls.gamma,
        }
    out = {
        "variant": "NotHospitable",
        "reason": cls.reason,
        "lambda": cls.lam,
        "gamma": cls.gamma,
    }
    if cls.mismatch is not None:
        out["mismatch"] = {
            "index": cls.mismatch.index,
            "expected": cls.mismatch.expected,
            "found": cls.mismatch.found if math.isfinite(cls.mismatch.found) else None,
        }
    return out
