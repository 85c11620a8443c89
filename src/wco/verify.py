"""Independent analytic oracles and cross-oracle verification reports.

Three routes certify (or refute) Hermitian-ness of a candidate operator:

* the finite-section matrix (`hermitian_deviation` and its three
  moments), exact entry by entry, judged by `section_checks` for the
  report and the command line's sweep rows alike;
* the kernel identity W K_w = W* K_w, checked pointwise through series;
* the generating function's nonlinear ODE
  beta(1)^4 k'(z)^2 / k(z) = (beta(2)^2 / 2) k''(z),
  whose only admissible solutions are the exponential and binomial
  families, checked coefficient by coefficient in its polynomial form
  beta(1)^4 k'^2 = (beta(2)^2 / 2) k k'', which the truncated series
  satisfies exactly (`ode_residual`).

All three identities hold exactly on hospitable spaces; `full_report` runs
them side by side, one record per check.  Off the families they need not
fail together: a Fock b = 1 file with beta(60) off by 1e-8 passes all
three (entries of index j carry |a0|^j), and only the classification check
sees it.  A fourth oracle, the Hardy/flat norm comparison
(`norm_equivalence_check`), measures the boundedness that the flat weight
sequences keep although they admit no Hermitian candidate.
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import dataclass, field

import numpy as np

from . import operators, spaces, symbols
from .series import TruncatedSeries
from .spaces import (
    DomainError,
    Exponential,
    NotHospitable,
    QuadratureError,
    SpaceClass,
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
    "ode_residual",
    "NormEquivalence",
    "norm_equivalence_check",
    "full_report",
    "section_checks",
    "quadrature_check",
    "DEFAULT_TOLERANCES",
]

#: pass/fail thresholds of the report checks: a residual at or below its
#: entry passes.  Each comment is the largest residual the entry's checks
#: reach on the hospitable candidates of bench/inputs.py: cli_pool(1..3) at
#: N = 64, report_pool(1..3) at N = 512
DEFAULT_TOLERANCES = {
    "identity": 1e-10,  # 2.1e-15, 4.7e-15: deviation, moments
    "kernel": 1e-8,  # 5.1e-15, 1.2e-14
    "ode": 1e-12,  # 5.1e-16, 2.8e-15
    "quadrature": 1e-6,  # 4.2e-16, 2.0e-16 (lam < 1 on the dilated disk included)
}

#: relative slack of the norm comparisons (sigma_max^2 against the Gaussian
#: bound, the derivative-norm sandwich, the flat-weight norm equivalence),
#: scaled by max(1, bound)
NORM_BOUND_SLACK = 1e-12
#: largest max|phi| - 1 on the 0.999-radius grid that still counts as a self-map,
#: for general pairs only (phi known as a series); family pairs have a closed form
BOUNDARY_GRID_TOL = 1e-9
#: the point w of the kernel identity W K_w = W* K_w in every report
KERNEL_POINT = 0.3 + 0.2j


# ---------------------------------------------------------------------------
# ODE oracle


class _PeakedResidual(float):
    """An `ode_residual` value naming the coefficient m where it peaks."""

    coefficient: int


def ode_residual(k: TruncatedSeries, beta1: float, beta2: float) -> float:
    """Max relative residual of beta1^4 k'^2 = (beta2^2 / 2) k k'',
    coefficient by coefficient.

    Coefficient m of either side reads khat(0..m+2) only, so the identity
    holds exactly on the truncated series for m = 0..N-2.  With
    L = beta1^4 (k' * k') and R = (beta2^2 / 2)(k * k''), truncated
    convolutions, the residual at m is |L_m - R_m| / (|L|_m + |R|_m), where
    |L| and |R| convolve the moduli: relative, so it does not tighten as
    khat(j) grows.  The result's ``coefficient`` is the m where it peaks.

    Coefficient j is first scaled by 2^(-e j), the integer e bringing every
    coefficient's leading product (khat(s/2)^2 or khat(0) khat(s), s = m + 2)
    closest to 2^0, so the products stay in range where khat(j)^2 would not
    (eta = 1200; Fock b = 0.01, or b = 0.05 at order 1000).  Both sides of
    coefficient m carry 2^(-e (m + 2)), so where neither pass leaves the
    normal range the residual is bitwise the unscaled one; where no e keeps
    every coefficient normal (eta ~ 100 from order 2,400) it raises ValueError.

    Requires order >= 3 (below it only m = 0 is left, which every weight
    sequence satisfies) and the normalization k(0) = 1, k'(0) = 1/beta1^2.
    """
    n = k.order
    if n < 3:
        raise ValueError(
            f"the generating ODE needs order >= 3 (got {n}): below it only "
            "its coefficient m = 0 is left, which every weight sequence satisfies"
        )
    c = k.coeffs
    if abs(c[0] - 1.0) > 1e-12:
        raise ValueError(f"k(0) must be 1 (got {c[0]})")
    if abs(c[1] - 1.0 / beta1**2) > 1e-12 * max(1.0, 1.0 / beta1**2):
        raise ValueError("k'(0) must equal 1/beta1^2")
    j = np.arange(n + 1)
    s = j[2:]  # coefficient m sums products khat(i) khat(s - i), s = m + 2
    with np.errstate(divide="ignore", invalid="ignore"):
        x = np.log2(np.abs(c))
        # log2 of its leading product where log khat is concave, of one
        # nonzero product otherwise; -inf where all are zero
        lead = np.maximum(x[0] + x[s], x[s // 2] + x[(s + 1) // 2])
    held = np.isfinite(lead)
    sh, lead = s[held], lead[held]
    # max |lead - e s| is convex in e, least between the slopes lead / s
    lo = math.floor(np.min(lead / sh, initial=0.0))
    hi = math.ceil(np.max(lead / sh, initial=0.0))
    while lo < hi:
        mid = (lo + hi) // 2
        here, next_ = (np.max(np.abs(lead - e * sh), initial=0.0) for e in (mid, mid + 1))
        lo, hi = (lo, mid) if here <= next_ else (mid + 1, hi)
    shift = -lo * j

    def sides(f, f1, f2):  # L and R from k, k', k''
        return beta1**4 * np.convolve(f1, f1)[: n - 1], beta2**2 / 2 * np.convolve(f, f2)[: n - 1]

    with np.errstate(over="ignore", invalid="ignore"):
        g = TruncatedSeries(np.ldexp(c.real, shift) + 1j * np.ldexp(c.imag, shift))
        d1 = g.derivative()
        # coefficients 0..N-2 of k, k' and k'', all that m <= N-2 reads
        terms = [f.coeffs[: n - 1] for f in (g, d1, d1.derivative())]
        lhs, rhs = sides(*terms)
        lhs_mod, rhs_mod = sides(*map(np.abs, terms))
        scale = lhs_mod + rhs_mod
        # 0/0 only where every product is zero: that coefficient holds exactly
        per_m = np.abs(lhs - rhs) / np.where(scale > 0.0, scale, 1.0)
    if not np.all(np.isfinite(per_m)) or np.any(scale[held] < np.finfo(float).tiny):
        raise ValueError("the products of the generating coefficients leave the double range")
    peak = int(np.argmax(per_m))
    residual = _PeakedResidual(per_m[peak])
    residual.coefficient = peak
    return residual


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

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, allow_nan=False)

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
    """Is phi a self-map of the unit disk?  A family pair (``sp.phi_pole``
    set, zero for the exponential family) is judged by the closed-form
    sup |phi| - 1 of `symbols.selfmap_excess`, for real or complex a1;
    general pairs fall back to a boundary grid on the truncation."""
    if sp.phi_pole is not None:
        excess, notes = symbols.selfmap_excess(sp.a0, sp.a1, sp.phi_pole), ""
        if sp.a1 == 0 and abs(sp.a0) >= 1.0:
            # a constant phi = a0 on the circle has excess |a0| - 1, 0 at |a0| = 1
            excess, notes = math.inf, f"|a0| = {abs(sp.a0)!r} >= 1: no self-map interval"
        elif abs(excess) <= symbols.ENDPOINT_SLACK:
            notes = "a1 sits at a self-map interval endpoint (boundary-touching phi)"
        return _residual_check(
            "selfmap", max(excess, 0.0), symbols.ENDPOINT_SLACK, "exact image circle", notes
        )
    with np.errstate(over="ignore", invalid="ignore"):
        on_grid = sp.phi(0.999 * np.exp(2j * np.pi * np.arange(1024) / 1024))
    grid_max = float(np.max(np.abs(on_grid)))
    return _residual_check(
        "selfmap",
        max(0.0, grid_max - 1.0) if math.isfinite(grid_max) else math.inf,  # max(0, nan - 1) = 0
        BOUNDARY_GRID_TOL,
        "boundary grid on the truncated phi",
        "grid estimate; truncation tail not included",
    )


def _classification_check(cls: SpaceClass) -> Check:
    """Passes exactly when `classify_weights` returned a hospitable class.
    A coefficient mismatch reports the relative ratio gap that
    `spaces.verify_candidate` decided with, against `spaces.FIT_TOL`; a
    lambda outside [0, 1] its distance from that interval."""
    hospitable = not isinstance(cls, NotHospitable)
    residual, tol, note = 0.0, spaces.CLASSIFICATION_TOL, f"family: {cls.variant}"
    if not hospitable:
        mm, note = cls.mismatch, f"reason: {cls.reason}"
        if mm is None:
            residual = max(cls.lam - 1.0, -cls.lam, 0.0)
        else:
            residual, tol = mm.gap, spaces.FIT_TOL
            note += (
                f" at index {mm.index}: weights give {mm.expected:.9g}, "
                f"family form gives {mm.found:.9g}"
            )
    return Check(
        "hospitable-classification", residual, tol, hospitable,
        "two-weight discriminant + full-sequence fit", note,
    )


def full_report(ws: WeightSequence, a0: complex, a1: complex, c: complex) -> VerificationReport:
    """Run every oracle against one (space, parameters) configuration, at
    the order of the weights.

    The report is deterministic given its inputs.  For hospitable spaces
    all checks are expected to pass; on any other space the classification
    check fails, and each oracle fails where it can see the departure
    (module docstring).
    """
    tol = DEFAULT_TOLERANCES
    n = ws.order
    cls = classify_weights(ws)
    subject = {
        "space": space_class_to_json(cls),
        "beta_head": [float(b) for b in ws.beta[:5]],
        "a0": [complex(a0).real, complex(a0).imag],
        "a1": [complex(a1).real, complex(a1).imag],
        "c": [complex(c).real, complex(c).imag],
        "order": n,
        "kernel_point": [KERNEL_POINT.real, KERNEL_POINT.imag],
    }
    checks = [_classification_check(cls)]
    hospitable = not isinstance(cls, NotHospitable)

    # symbols: family closed form when available, general shape otherwise
    if hospitable:
        sp = symbols.synthesize(cls, a0, a1, c, n)
    else:
        sp = symbols.synthesize_from_weights(ws, a0, a1, c, cls=cls)
    subject["trivial"] = sp.trivial

    checks.append(_selfmap_check(sp))

    m = operators.build_matrix(sp, ws)
    checks.extend(section_checks(m))

    # the ODE on the weights' own 1/beta^2, coefficients 0..N, exact at every m
    k = TruncatedSeries(ws.generating_coefficients())
    try:
        ode = ode_residual(k, float(ws.beta[1]), float(ws.beta[2]))
        ode_note = f"peak at coefficient m = {ode.coefficient}"
    except ValueError as exc:
        ode, ode_note = math.inf, str(exc)
    checks.append(
        _residual_check(
            "generating-ode", ode, tol["ode"], "ODE coefficients, exact through order N", ode_note
        )
    )

    try:
        kernel_res = operators.kernel_identity_residual(m, sp, ws, KERNEL_POINT)
        notes = ""
        if hospitable:
            log_tail = operators.kernel_tail_bound(cls, KERNEL_POINT, n)
            try:
                mass = 10.0 ** log_tail
            except OverflowError:
                mass = math.inf
            if sys.float_info.min <= mass < math.inf:
                notes = f"truncated-kernel tail mass {mass:.3e}"
            else:  # the log to one decimal, in at most 17 digits
                side = "beyond" if log_tail > 0 else "below"
                notes = f"truncated-kernel tail mass {side} the double range (log10 {round(log_tail, 1)})"
    except DomainError as exc:
        kernel_res, notes = math.inf, f"skipped: {exc}"
    checks.append(
        _residual_check("kernel-identity", kernel_res, tol["kernel"], "adjoint on kernels", notes)
    )

    checks.extend(_family_specific_checks(ws, cls, sp, m))

    return VerificationReport(subject=subject, checks=checks)


#: report oracle names of the `spaces.integral_norm` domains
_QUADRATURE_ORACLES = {
    "gaussian-plane": "Gaussian-plane quadrature",
    "disk": "disk quadrature",
    "circle": "circle quadrature",
    "unbuilt": "integral-norm quadrature",
}


def section_checks(m: np.ndarray) -> list[Check]:
    """The `hermitian-deviation` check of a finite section (noting the entry
    where it peaks) and its three moment checks, against the ``identity``
    tolerance: every verdict on a section, the report's and a sweep row's."""
    deviation, argmax, moments = operators.hermitian_deviation(m)
    tol, oracle = DEFAULT_TOLERANCES["identity"], "finite-section matrix (exact entries)"
    return [
        _residual_check("hermitian-deviation", deviation, tol, oracle, f"argmax entry {list(argmax)}"),
        *(_residual_check(f"moment-{j}", value, tol, oracle) for j, value in enumerate(moments)),
    ]


def quadrature_check(domain: str, series_norm: float, quad_norm: float, notes: str = "") -> Check:
    """The `quadrature-vs-series-norm` check: the relative gap |q - s|/s of
    the integral norm q over ``domain`` (a `spaces.integral_norm` domain, or
    "unbuilt") from the series norm s, s read as at least 1e-300, against
    the ``quadrature`` tolerance."""
    return _residual_check(
        "quadrature-vs-series-norm",
        abs(quad_norm - series_norm) / max(series_norm, 1e-300),
        DEFAULT_TOLERANCES["quadrature"],
        _QUADRATURE_ORACLES[domain],
        notes,
    )


def _family_specific_checks(ws, cls, sp, m) -> list[Check]:
    """The checks that depend on the space, after the section's: the norm
    checks.  A binomial space below lam = 1 takes them through the dilation
    z -> sqrt(lam) z onto its lam = 1 counterpart: the integral norm on the
    disk of radius 1/sqrt(lam), or for eta < 1 the derivative sandwich on
    the rescaled probe f(z / sqrt(lam))."""
    checks: list[Check] = []
    if isinstance(cls, NotHospitable):
        # inhospitable with a constant weight tail: the norms are equivalent
        # to the Hardy norm, so bounded psi and a disk self-map phi still give
        # a bounded (just never nontrivially Hermitian) operator
        beta_tail = ws.beta[1:]
        lo, hi = float(np.min(beta_tail)), float(np.max(beta_tail))
        if hi - lo <= 1e-12 * hi and lo >= 1.0 - 1e-12:
            equivalence = norm_equivalence_check(_probe_polynomial(ws.order), level=hi)
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

    probe = _probe_polynomial(ws.order)
    try:
        domain, quad_norm = spaces.integral_norm(cls, probe)
        quad_note = ""
    except DomainError:
        domain = None
    except QuadratureError as exc:
        # a quadrature value past the double range fails this check only;
        # the report keeps every other check
        domain, quad_norm, quad_note = "unbuilt", math.inf, f"quadrature did not run: {exc}"
    if domain is not None:
        checks.append(quadrature_check(domain, spaces.norm(probe, ws), quad_norm, quad_note))
    else:
        # the sandwich bounds lam = 1 norms: run it on the probe's dilate
        bounds = spaces.derivative_norm_bounds(_probe_polynomial(ws.order, cls.lam), cls.eta)
        violation = max(bounds.lower - bounds.value, bounds.value - bounds.upper, 0.0)
        checks.append(
            _residual_check(
                "derivative-norm-sandwich",
                violation,
                NORM_BOUND_SLACK * max(1.0, bounds.upper),
                "series norms in the shifted space",
                "no disk-integral form for eta < 1; sandwich cross-check instead, "
                "on the rescaled probe f(z / sqrt(lam))",
            )
        )

    if isinstance(cls, Exponential) and 0 < abs(sp.a1) < 1:
        # in log units, so a bound beyond the double range (small b) still
        # compares: sigma_max^2 <= bound (1 + NORM_BOUND_SLACK)
        log_bound = operators.fock_log_bound(sp)
        sigma = operators.finite_section_norm(m)
        log_sigma_sq = 2.0 * math.log(sigma) if sigma != 0.0 else -math.inf
        # the zero section (c = 0) meets every bound, log bound = -inf too
        excess = 0.0 if sigma == 0.0 else log_sigma_sq - log_bound
        checks.append(
            _residual_check(
                "norm-bound-dominance",
                0.0 if excess <= 0.0 else excess,
                NORM_BOUND_SLACK,
                "closed-form bound vs largest singular value",
                f"log sigma_max^2 = {log_sigma_sq:.6g} <= log bound = {log_bound:.6g}",
            )
        )
    return checks


def _probe_polynomial(order: int, lam: float = 1.0) -> TruncatedSeries:
    """Fixed low-degree probe f used for quadrature cross-checks, or its
    dilate f(z / sqrt(lam)), coefficients f(j) lam^(-j/2)."""
    coeffs = np.array([1.0, 0.5, -0.25, 1 / 3, 0.0, -0.125, 0.2])
    return TruncatedSeries(coeffs * lam ** (-0.5 * np.arange(coeffs.size))).truncated(order)
