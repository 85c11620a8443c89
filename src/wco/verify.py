"""Independent analytic oracles and cross-oracle verification reports.

Three routes certify (or refute) Hermitian-ness of a candidate operator:

* the finite-section matrix (`hermitian_deviation` and its three
  moments), exact entry by entry;
* the kernel identity W K_w = W* K_w, checked pointwise through series;
* the generating function's nonlinear ODE
  beta(1)^4 k'(z)^2 / k(z) = (beta(2)^2 / 2) k''(z),
  whose only admissible solutions are the exponential and binomial
  families (`ode_residual`).

All three identities hold exactly on hospitable spaces and fail together
off them, so their verdicts must agree on every configuration;
`full_report` runs them side by side and aggregates one pass/fail record
per check.  A fourth oracle, the Hardy/flat norm comparison
(`norm_equivalence_check`), measures the boundedness that the flat weight
sequences keep although they admit no Hermitian candidate.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from . import operators, spaces, symbols
from .series import TruncatedSeries
from .spaces import (
    Binomial,
    DomainError,
    Exponential,
    NotHospitable,
    WeightSequence,
    classify_weights,
    flat_weights,
    hardy_weights,
    space_class_to_json,
)
from .symbols import SymbolPair

__all__ = [
    "Check",
    "VerificationReport",
    "ODE_SAMPLES",
    "ode_residual",
    "NormEquivalence",
    "norm_equivalence_check",
    "full_report",
    "DEFAULT_TOLERANCES",
]

#: pass/fail thresholds with three decades between the pass band (exact
#: identities at N = 64 are clean to ~1e-13) and the violation band.
DEFAULT_TOLERANCES = {
    "identity": 1e-10,
    "kernel": 1e-8,
    "ode": 1e-12,
    "quadrature": 1e-6,
    "violation": 1e-3,
}

#: floating-point slack of the affine self-map bound |a0| + |a1| <= 1
AFFINE_SELFMAP_SLACK = 1e-12
#: relative slack of the norm comparisons (sigma_max^2 against the Gaussian
#: bound, the derivative-norm sandwich, the flat-weight norm equivalence),
#: scaled by max(1, bound)
NORM_BOUND_SLACK = 1e-12
#: largest max|phi| - 1 on the 0.999-radius grid that still counts as a self-map
BOUNDARY_GRID_TOL = 1e-9
#: the point w of the kernel identity W K_w = W* K_w in every report
KERNEL_POINT = 0.3 + 0.2j


# ---------------------------------------------------------------------------
# ODE oracle


#: ODE sample points: the radii 0.1, 0.3, 0.5 at twelve uniform arguments,
#: inside every family's disk of analyticity with margin
ODE_SAMPLES = np.concatenate(
    [r * np.exp(2j * np.pi * np.arange(12) / 12) for r in (0.1, 0.3, 0.5)]
)
ODE_SAMPLES.setflags(write=False)


def ode_residual(k: TruncatedSeries, beta1: float, beta2: float) -> float:
    """Max relative residual of beta1^4 k'(z)^2 / k(z) = (beta2^2 / 2) k''(z).

    At each sample z the residual is divided by the same two terms with
    every coefficient of k replaced by its modulus and evaluated at |z|, so
    the value is a relative error: the check does not tighten as k(z)
    grows (k(0.5) = 2^eta in the binomial family).  The input series should
    carry two orders beyond the intended accuracy (both derivatives are
    taken termwise).  Requires the normalization k(0) = 1 and
    k'(0) = 1/beta1^2, which every generating function with matching
    beta(1) satisfies.
    """
    if abs(k.coeffs[0] - 1.0) > 1e-12:
        raise ValueError(f"k(0) must be 1 (got {k.coeffs[0]})")
    if abs(k.coeffs[1] - 1.0 / beta1**2) > 1e-12 * max(1.0, 1.0 / beta1**2):
        raise ValueError("k'(0) must equal 1/beta1^2")

    def terms(f: TruncatedSeries, z):
        fp = f.derivative()
        fv = f(z)
        if np.any(fv == 0):
            raise ZeroDivisionError("the generating function vanishes at a sample point")
        return beta1**4 * fp(z) ** 2 / fv, 0.5 * beta2**2 * fp.derivative()(z)

    lhs, rhs = terms(k, ODE_SAMPLES)
    lhs_mod, rhs_mod = terms(TruncatedSeries(np.abs(k.coeffs)), np.abs(ODE_SAMPLES))
    return float(np.max(np.abs(lhs - rhs) / np.abs(lhs_mod + rhs_mod)))


def _ode_series_order(cls) -> int:
    """Order at which a family's k, k' and k'' have converged at |z| = 0.5,
    the largest ODE sample radius.

    Walks the terms t_j = khat(j) 0.5^j with the family's
    `coefficient_ratio` rho_j = t_{j+1} / t_j.  The k'' terms j^2 t_j
    (up to 0.5^-2) shrink by s_j = rho_j (1 + 1/j)^2 per step, which does
    not grow with j once rho_j is falling (eta >= 1; otherwise rho_j stays
    below lam / 2), so their tail beyond j is about j^2 t_j s_j / (1 - s_j).
    The walk stops once that is below 1e-17 of the partial sum; two more
    orders cover the derivatives.  A sum that overflows stops the walk:
    the series cannot be evaluated in double precision there.
    """
    radius, rel = 0.5, 1e-17
    term = total = 1.0
    j = 0
    while math.isfinite(total):
        term *= cls.coefficient_ratio(j) * radius
        total += term
        j += 1
        shrink = cls.coefficient_ratio(j) * radius * (1.0 + 1.0 / j) ** 2
        if shrink < 1.0 and term * j * j * shrink <= rel * total * (1.0 - shrink):
            break
    return j + 2


# ---------------------------------------------------------------------------
# Hardy-equivalence of the flat weight sequence


@dataclass(frozen=True)
class NormEquivalence:
    hardy: float
    flat: float
    level: float

    @property
    def violation(self) -> float:
        """How far hardy <= flat <= level * hardy fails, relative to
        max(1, hardy); zero when it holds."""
        gap = max(self.hardy - self.flat, self.flat - self.level * self.hardy, 0.0)
        return gap / max(1.0, self.hardy)

    @property
    def ratio_ok(self) -> bool:
        return self.violation <= NORM_BOUND_SLACK


def norm_equivalence_check(f: TruncatedSeries, level: float = 2.0) -> NormEquivalence:
    """Two-sided comparison of the Hardy norm with the flat-weight norm
    (beta(0) = 1, beta(j) = level): the flat norm is squeezed between one
    and ``level`` times the Hardy norm."""
    h = spaces.norm(f, hardy_weights(f.order))
    fl = spaces.norm(f, flat_weights(f.order, level=level))
    return NormEquivalence(hardy=h, flat=fl, level=level)


# ---------------------------------------------------------------------------
# aggregated reports


@dataclass(frozen=True)
class Check:
    name: str
    residual: float
    tolerance: float
    passed: bool
    oracle: str
    notes: str = ""

    def to_dict(self) -> dict:
        """JSON shape of the check; a non-finite residual (a skipped or
        failed oracle) becomes null, so the output stays strict JSON."""
        return {
            "name": self.name,
            "residual": self.residual if math.isfinite(self.residual) else None,
            "tolerance": self.tolerance,
            "pass": self.passed,
            "oracle": self.oracle,
            "notes": self.notes,
        }


@dataclass(frozen=True)
class VerificationReport:
    subject: dict
    checks: list[Check] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def to_dict(self) -> dict:
        return {
            "schema": "wco-report/1",
            "subject": self.subject,
            "checks": [c.to_dict() for c in self.checks],
            "pass": self.passed,
        }

    def to_json(self, indent: int | None = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent, allow_nan=False)

    def lines(self) -> list[str]:
        out = []
        for c in self.checks:
            tag = "PASS" if c.passed else "FAIL"
            line = f"[{tag}] {c.name}: residual {c.residual:.3e} (tol {c.tolerance:.1e}, {c.oracle})"
            if c.notes:
                line += f" -- {c.notes}"
            out.append(line)
        out.append("overall: " + ("PASS" if self.passed else "FAIL"))
        return out


def _residual_check(name, residual, tol, oracle, notes="") -> Check:
    return Check(
        name=name,
        residual=float(residual),
        tolerance=float(tol),
        passed=bool(residual <= tol),
        oracle=oracle,
        notes=notes,
    )


def _selfmap_check(sp: SymbolPair) -> Check:
    """Is phi a self-map of the unit disk?  Family pairs use the exact
    interval; general pairs fall back to a boundary grid on the truncation."""
    cls = sp.cls
    a1r, notes = sp.a1.real, ""
    if abs(sp.a1.imag) > 0:
        notes = "a1 has an imaginary part; treated via |phi| on the boundary grid"
    if isinstance(cls, Binomial) and sp.a1.imag == 0:
        interval = symbols.selfmap_interval(sp.a0, cls.lam, 1.0)
        inside = interval.contains(a1r)
        residual = 0.0 if inside else max(interval.a1_min - a1r, a1r - interval.a1_max)
        if interval.at_endpoint(a1r):
            notes = "a1 sits at a self-map interval endpoint (boundary-touching phi)"
        return _residual_check(
            "selfmap", residual, symbols.ENDPOINT_SLACK, "exact interval", notes
        )
    if isinstance(cls, Exponential) and sp.a1.imag == 0:
        residual = max(0.0, abs(sp.a0) + abs(a1r) - 1.0)
        return _residual_check(
            "selfmap", residual, AFFINE_SELFMAP_SLACK, "affine bound", notes
        )
    grid_max = float(
        np.max(np.abs(sp.phi(0.999 * np.exp(2j * np.pi * np.arange(1024) / 1024))))
    )
    return _residual_check(
        "selfmap",
        max(0.0, grid_max - 1.0),
        BOUNDARY_GRID_TOL,
        "boundary grid on the truncated phi",
        notes or "grid estimate; truncation tail not included",
    )


def full_report(
    ws: WeightSequence,
    a0: complex,
    a1: complex,
    c: complex,
    order: int | None = None,
    tolerances: dict | None = None,
) -> VerificationReport:
    """Run every oracle against one (space, parameters) configuration.

    The report is deterministic given its inputs.  For hospitable spaces
    all checks are expected to pass; for inhospitable ones the matrix, ODE
    and kernel oracles must agree in rejecting the candidate.
    """
    tol = dict(DEFAULT_TOLERANCES)
    if tolerances:
        tol.update(tolerances)
    n = ws.order if order is None else order
    if ws.order < n:
        raise ValueError("weights are shorter than the requested order")

    cls = classify_weights(ws)
    subject = {
        "space": space_class_to_json(cls),
        "beta_head": [float(b) for b in ws.beta[: min(5, n + 1)]],
        "a0": [complex(a0).real, complex(a0).imag],
        "a1": [complex(a1).real, complex(a1).imag],
        "c": [complex(c).real, complex(c).imag],
        "order": n,
        "kernel_point": [KERNEL_POINT.real, KERNEL_POINT.imag],
    }
    checks: list[Check] = []

    hospitable = not isinstance(cls, NotHospitable)
    if hospitable:
        hosp_residual = 0.0
        hosp_note = f"family: {cls.variant}"
    else:
        lam = cls.lam
        hosp_residual = max(lam - 1.0, -lam, 0.0) if cls.reason != "coefficient-mismatch" else math.inf
        hosp_note = f"reason: {cls.reason}"
        if cls.mismatch is not None:
            mm = cls.mismatch
            hosp_residual = abs(mm.expected - mm.found)
            hosp_note += (
                f" at index {mm.index}: weights give {mm.expected:.9g}, "
                f"family form gives {mm.found:.9g}"
            )
    checks.append(
        _residual_check(
            "hospitable-classification",
            hosp_residual,
            spaces.CLASSIFICATION_TOL,
            "two-weight discriminant + full-sequence fit",
            hosp_note,
        )
    )

    # symbols: family closed form when available, general shape otherwise
    if hospitable:
        sp = symbols.synthesize(cls, a0, a1, c, n)
    else:
        sp = symbols.synthesize_from_weights(ws, a0, a1, c, cls=cls)
    subject["trivial"] = sp.trivial

    checks.append(_selfmap_check(sp))

    m = operators.build_matrix(sp, ws, n)
    deviation, argmax, moments = operators.hermitian_deviation(m)
    checks.append(
        _residual_check(
            "hermitian-deviation",
            deviation,
            tol["identity"],
            "finite-section matrix (exact entries)",
            f"argmax entry {list(argmax)}",
        )
    )
    for label, value in zip(("moment-0", "moment-1", "moment-2"), moments):
        checks.append(
            _residual_check(
                label, value, tol["identity"], "finite-section matrix (exact entries)"
            )
        )

    # For hospitable spaces evaluate the ODE on the family closed form at the
    # order where its tail at |z| = 0.5 has converged (the full-sequence fit
    # already tied the weights to it).  For inhospitable spaces use the
    # weights' own coefficients: violations are orders of magnitude above
    # any truncation effect.
    if hospitable:
        ode_order = _ode_series_order(cls)
        k_series = cls.generating_series(ode_order)
        ode_note = f"family closed form at order {ode_order}"
    else:
        k_series = TruncatedSeries(ws.generating_coefficients().astype(complex))
        ode_note = "explicit generating coefficients"
    try:
        ode = ode_residual(k_series, float(ws.beta[1]), float(ws.beta[2]))
    except (ValueError, ZeroDivisionError) as exc:
        ode, ode_note = math.inf, str(exc)
    checks.append(
        _residual_check("generating-ode", ode, tol["ode"], "series-evaluated ODE", ode_note)
    )

    try:
        kernel_res = operators.kernel_identity_residual(m, sp, ws, KERNEL_POINT)
        notes = ""
        if hospitable:
            tail = operators.kernel_tail_bound(cls, KERNEL_POINT, n)
            notes = f"truncated-kernel tail mass {tail:.3e}"
    except DomainError as exc:
        kernel_res, notes = math.inf, f"skipped: {exc}"
    checks.append(
        _residual_check("kernel-identity", kernel_res, tol["kernel"], "adjoint on kernels", notes)
    )

    checks.extend(_family_specific_checks(ws, cls, sp, m, n, tol))

    return VerificationReport(subject=subject, checks=checks)


#: report oracle names of the `spaces.integral_norm` domains
_QUADRATURE_ORACLES = {
    "gaussian-plane": "Gaussian-plane quadrature",
    "disk": "disk quadrature",
    "circle": "circle quadrature",
}


def _family_specific_checks(ws, cls, sp, m, n, tol) -> list[Check]:
    checks: list[Check] = []
    if isinstance(cls, NotHospitable):
        # inhospitable with a constant weight tail: the norms are equivalent
        # to the Hardy norm, so bounded psi and a disk self-map phi still give
        # a bounded (just never nontrivially Hermitian) operator
        beta_tail = ws.beta[1:]
        lo, hi = float(np.min(beta_tail)), float(np.max(beta_tail))
        if hi - lo <= 1e-12 * hi and lo >= 1.0 - 1e-12:
            equivalence = norm_equivalence_check(_probe_polynomial(n), level=hi)
            checks.append(
                _residual_check(
                    "hardy-norm-equivalence",
                    equivalence.violation,
                    NORM_BOUND_SLACK,
                    "weight-ratio bounds",
                    f"norms sit between 1 and {hi:.6g} times the Hardy norm; "
                    "boundedness transfers even though Hermitian-ness fails",
                )
            )
        return checks

    probe = _probe_polynomial(n)
    try:
        domain, quad_norm = spaces.integral_norm(cls, probe)
    except DomainError:
        domain = None
    if domain is not None:
        series_norm = spaces.norm(probe, ws)
        checks.append(
            _residual_check(
                "quadrature-vs-series-norm",
                abs(series_norm - quad_norm) / series_norm,
                tol["quadrature"],
                _QUADRATURE_ORACLES[domain],
            )
        )
    elif cls.normal_form:
        bounds = spaces.derivative_norm_bounds(probe, cls.eta)
        violation = max(bounds.lower - bounds.value, bounds.value - bounds.upper, 0.0)
        checks.append(
            _residual_check(
                "derivative-norm-sandwich",
                violation,
                NORM_BOUND_SLACK * max(1.0, bounds.upper),
                "series norms in the shifted space",
                "no disk-integral form for eta < 1; sandwich cross-check instead",
            )
        )
    else:
        conj_res = operators.conjugation_check(m, sp)
        checks.append(
            _residual_check(
                "dilation-conjugation",
                conj_res,
                tol["identity"],
                "matrix identity across the dilation unitary",
            )
        )

    if isinstance(cls, Exponential) and 0 < abs(sp.a1) < 1:
        bound = operators.fock_bound(sp)
        sigma = operators.finite_section_norm(m)
        checks.append(
            _residual_check(
                "norm-bound-dominance",
                max(0.0, sigma * sigma - bound),
                NORM_BOUND_SLACK * max(1.0, bound),
                "closed-form bound vs largest singular value",
                f"sigma_max^2 = {sigma * sigma:.6g} <= bound = {bound:.6g}",
            )
        )
    return checks


def _probe_polynomial(order: int) -> TruncatedSeries:
    """Fixed low-degree probe used for quadrature cross-checks."""
    coeffs = np.zeros(order + 1, dtype=complex)
    template = np.array([1.0, 0.5, -0.25, 1 / 3, 0.0, -0.125, 0.2])
    take = min(order + 1, template.size)
    coeffs[:take] = template[:take]
    return TruncatedSeries(coeffs)
