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
    "DerivativeNormBounds",
    "derivative_norm_bounds",
    "weights_from_json",
    "space_class_to_json",
]


class DomainError(ValueError):
    """An argument lies outside the mathematical domain of the operation."""


class QuadratureError(RuntimeError):
    """A quadrature value leaves the double range."""


#: tolerance of the first-slope decisions (gamma = 1, lam = 0, lam = 1): the
#: families are well separated, and anything this close to a boundary sits on it
CLASSIFICATION_TOL = 1e-9
#: relative tolerance of `verify_candidate`'s ratio-by-ratio fit
FIT_TOL = 1e-10


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

    Evaluates f pointwise on the full polar grid by its own Horner
    (`TruncatedSeries.__call__`, in place from the last nonzero
    coefficient); deliberately does *not* shortcut through the coefficient
    formula, so the quadrature stays an independent check on the
    series-side norms.  The grid and the values are the only arrays of its
    size.
    """
    theta = 2.0 * np.pi * np.arange(n_angular) / n_angular
    grid = radii[:, None] * np.exp(1j * theta)[None, :]
    # a value beyond the double range comes back as inf or nan, with no warning
    with np.errstate(over="ignore", invalid="ignore"):
        vals = f(grid)
        return np.mean(vals.real**2 + vals.imag**2, axis=1)


def _degree(f: TruncatedSeries) -> int:
    """deg f: the index of its last nonzero coefficient (0 for f = 0), not its order."""
    return max(np.trim_zeros(f.coeffs, "b").size - 1, 0)


def _angular_nodes(f: TruncatedSeries) -> int:
    # on a circle |f|^2 has angular modes up to +/- deg f; a uniform rule
    # with more than 2 deg f points integrates it exactly
    return 2 * _degree(f) + 1


def _gauss_rule(
    c: np.ndarray, e: np.ndarray, rho: np.ndarray, mass: float
) -> tuple[np.ndarray, np.ndarray]:
    """n-point Gauss rule (n = c.size) of a weight of total ``mass``: read-only
    increasing nodes t and weights w, exact below degree 2n.

    The weight's orthogonal polynomials R_k, normalized to R_k(0) = 1 at the
    rule's small end, are given by the difference recurrence
    D_(k+1) = R_(k+1) - R_k = c_k t R_k + e_k D_k (D_0 = 0), which subtracts
    nothing from t, so small nodes keep their relative accuracy.  The nodes
    are the eigenvalues of the Jacobi matrix, diagonal -(1 + e_k)/c_k and
    squared off-diagonal e_k/(c_(k-1) c_k) (Golub & Welsch, Math. Comp. 23,
    1969), polished by two Newton steps.  The recurrence runs on
    p_k = R_k sqrt(h_0/h_k), h_k = integral R_k^2, each step times
    rho_k = sqrt(h_k/h_(k+1)), so the weights are the Christoffel numbers
    mass/sum_(k<n) p_k(t)^2, and Christoffel-Darboux gives the Newton
    derivative at a root: p_n' = c_(n-1) rho_(n-1) sum_(k<n) p_k^2 / p_(n-1).
    Eigenvector components would give the weights only against the largest
    one, so the tiny weights that carry the high moments would be lost (at
    n = 200, Gauss-Jacobi Beta moments up to degree 150 off by 0.12 at
    alpha = 28).  Every step divides by a power of two, exactly, so nothing
    overflows; a weight below the double range is 0, at a node beyond every
    moment the rule is exact for.

    Against 40-digit mpmath rules at n = 50 (tests/test_spaces.py), the
    Gauss-Jacobi nodes are within 2.3e-16 and its weights within 5e-13
    relative for alpha from -0.999 to 498, the Gauss-Laguerre nodes within
    4e-16 and its weights within 5e-14 relative.
    """
    n = c.size
    off = np.sqrt(e[1:] / (c[:-1] * c[1:]))
    t = np.linalg.eigvalsh(np.diag(-(1.0 + e) / c) + np.diag(off, -1))
    for polish in (True, True, False):
        cur, diff, total = np.ones(n), np.zeros(n), np.zeros(n)
        exponent = np.zeros(n, dtype=np.intc)
        for k in range(n):
            total += cur * cur
            diff = rho[k] * (c[k] * t * cur + e[k] * diff)
            cur = rho[k] * cur + diff
            _, x = np.frexp(np.maximum(np.abs(cur), np.abs(diff)))
            cur, diff, total = np.ldexp(cur, -x), np.ldexp(diff, -x), np.ldexp(total, -2 * x)
            exponent += x
        if polish:  # p_(n-1) = (p_n - D_n)/rho_(n-1), both scaled alike
            t = t - cur * (cur - diff) / (c[-1] * rho[-1] ** 2 * total)
    weights = np.ldexp(mass / total, -2 * exponent)
    t.setflags(write=False)
    weights.setflags(write=False)
    return t, weights


def _gauss_laguerre(n: int) -> tuple[np.ndarray, np.ndarray]:
    """n-point Gauss rule on [0, inf) for the weight e^(-t) (`_gauss_rule`):
    the Laguerre polynomials, (k + 1) D_(k+1) = k D_k - t L_k and h_k = 1."""
    k = np.arange(n, dtype=float)
    return _gauss_rule(-1.0 / (k + 1.0), k / (k + 1.0), np.ones(n), 1.0)


def _gauss_jacobi(n: int, alpha: float) -> tuple[np.ndarray, np.ndarray]:
    """n-point Gauss rule on [0, 1] for the weight (1 - s)^alpha, alpha > -1:
    read-only increasing nodes s and weights w, exact below degree 2n.

    `_gauss_rule` builds it in u = 1 - s, the weight u^alpha, whose
    polynomials are R_k(u) = P_k^(alpha, 0)(1 - 2u)/binom(k + alpha, k).  So
    the nodes near s = 1, where the weight is singular for alpha < 0, are
    found and weighted in u, to full relative accuracy, before s = 1 - u
    rounds them; and 1/h_k = (2k + alpha + 1) binom(k + alpha, k)^2 enters
    only as the ratios rho_k, which stay in range at any alpha.
    """
    k = np.arange(n, dtype=float)
    c = -(2.0 * k + alpha + 1.0) * (2.0 * k + alpha + 2.0) / (k + alpha + 1.0) ** 2
    e = np.zeros(n)  # e_0 = 0: the formula is 0/0 at alpha = 0
    j = k[1:]
    e[1:] = j * j * (2.0 * j + alpha + 2.0) / ((2.0 * j + alpha) * (j + alpha + 1.0) ** 2)
    rho = np.sqrt((2.0 * k + alpha + 3.0) / (2.0 * k + alpha + 1.0)) * (k + alpha + 1.0) / (k + 1.0)
    u, w = _gauss_rule(c, e, rho, 1.0 / (alpha + 1.0))
    s = 1.0 - u[::-1]
    s.setflags(write=False)
    return s, w[::-1]


def integral_norm(cls: SpaceClass, f: TruncatedSeries) -> tuple[str, float]:
    """The domain and the integral norm of ``f``, for the family spaces that
    have one.  With M(r^2) the angular mean of |f|^2 on |z| = r, of degree
    deg f in r^2, the norm squared is, on the domain

    * "gaussian-plane" (exponential family), (1/(pi b^2)) integral
      |f|^2 e^(-|z|^2/b^2) dA = integral_0^inf e^(-t) M(b^2 t) dt;
    * "disk" (binomial family, eta > 1), the lam = 1 norm of f(z / sqrt(lam)),
      (eta - 1)/pi integral |f|^2 (1 - lam |z|^2)^(eta-2) lam dA over the
      disk of radius 1/sqrt(lam), = (eta - 1) integral_0^1 (1 - s)^(eta-2)
      M(s / lam) ds;
    * "circle" (binomial family, eta = 1), M(1 / lam).

    The binomial rules are the dilation of the lam = 1 space: z -> sqrt(lam) z
    carries the weights beta(j) lam^(-j/2) onto beta(j), so the norm over
    (lam, eta) of f is the norm over (1, eta) of f(z / sqrt(lam)) (Cowen &
    MacCluer, Composition Operators on Spaces of Analytic Functions, 1995).
    The (deg f // 2 + 1)-point Gauss rule of the radial weight and 2 deg f + 1
    uniform angular nodes make it exact.  Any other space raises DomainError
    (eta < 1 has the derivative sandwich); a value past the range, QuadratureError.
    """
    n_radial, n_angular = _degree(f) // 2 + 1, _angular_nodes(f)
    scale = 1.0
    if isinstance(cls, Exponential):
        domain, r_sq, (t, w) = "gaussian-plane", cls.b_sq, _gauss_laguerre(n_radial)
    elif not isinstance(cls, Binomial):
        raise DomainError("integral norms are available for the family spaces only")
    elif cls.eta > 1.0 + 1e-9:
        domain, r_sq, scale = "disk", 1.0 / cls.lam, cls.eta - 1.0
        t, w = _gauss_jacobi(n_radial, cls.eta - 2.0)
    elif abs(cls.eta - 1.0) <= 1e-9:
        domain, r_sq, t, w = "circle", 1.0 / cls.lam, np.ones(1), np.ones(1)
    else:
        raise DomainError(
            "no integral norm for eta < 1; use the series norm "
            "(cross-checked by the derivative sandwich)"
        )
    means = _eval_on_grid(f, np.sqrt(r_sq * t), n_angular)
    with np.errstate(invalid="ignore"):  # a weight of 0 times an infinite mean
        value = float(scale * np.sum(w * means))
    if not math.isfinite(value):
        label = "Gaussian" if domain == "gaussian-plane" else domain
        raise QuadratureError(
            f"{label} norm quadrature not converged: nodes {w.size}x{n_angular}, value {value}"
        )
    return domain, math.sqrt(value)


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
