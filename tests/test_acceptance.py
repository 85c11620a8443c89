"""Acceptance gate: every criterion at its stated tolerance.

Each test prints one `criterion NN PASS/FAIL` line (visible with -s).
All suites together are expected to finish well inside two minutes at the
default truncation order.
"""

import math
import time
from contextlib import contextmanager

import numpy as np

from wco import operators, spaces, symbols, verify
from wco.series import TruncatedSeries, binomial_series, exp_series, monomial
from wco.spaces import (
    Binomial,
    Exponential,
    NotHospitable,
    WeightSequence,
    bergman_norm_quadrature,
    classify_weights,
    dirichlet_weights,
    family_weights,
    fock_norm_quadrature,
    fock_weights,
    hardy_norm_quadrature,
    hardy_weights,
    verify_candidate,
)
from wco.symbols import (
    a1_from_fraction,
    mobius_circle_max,
    selfmap_interval,
    synthesize,
    synthesize_from_weights,
)


@contextmanager
def criterion(number: int, description: str):
    try:
        yield
    except BaseException:
        print(f"criterion {number:02d} FAIL {description}")
        raise
    print(f"criterion {number:02d} PASS {description}")


def random_polynomial(rng, max_degree, order=None):
    deg = int(rng.integers(0, max_degree + 1))
    n = deg if order is None else order
    coeffs = np.zeros(n + 1, dtype=complex)
    coeffs[: deg + 1] = rng.standard_normal(deg + 1) + 1j * rng.standard_normal(deg + 1)
    return TruncatedSeries(coeffs)


def test_criterion_01_flat_weight_rejection():
    with criterion(1, "flat-weight space rejected with lambda = 7/4"):
        cls = classify_weights(WeightSequence([1.0, 2.0, 2.0]))  # wco classify 2 2
        assert isinstance(cls, NotHospitable)
        assert cls.reason == "lambda-exceeds-one"
        assert abs(cls.lam - 1.75) <= 1e-12


def test_criterion_02_family_round_trips():
    with criterion(2, "family classify + full-sequence verification round-trips"):
        families = [Binomial(1.0, 1.0, 2.0), Binomial(1.0, 2.0, 1.5)]
        families += [Binomial(1.0, eta, (eta + 1) / eta) for eta in (0.5, 1.7, 3.0)]
        families += [Exponential(b_sq=b * b) for b in (0.5, 1.0, 2.0)]
        for cls in families:
            ws = family_weights(cls, 64)
            found = classify_weights(ws)
            assert type(found) is type(cls)
            if isinstance(cls, Binomial):
                assert abs(found.lam - cls.lam) <= 1e-9
                assert abs(found.eta - cls.eta) <= 1e-9 * max(1.0, cls.eta)
            else:
                assert abs(found.b_sq - cls.b_sq) <= 1e-9 * max(1.0, cls.b_sq)
            assert verify_candidate(ws, found) is None


def test_criterion_03_dirichlet_rejection():
    with criterion(3, "Dirichlet weights rejected at coefficient 3"):
        ws = dirichlet_weights(64)
        # the two-weight discriminant, as `wco classify B1 B2` reads it
        cls = classify_weights(WeightSequence([1.0, ws.beta[1], ws.beta[2]]))
        mismatch = verify_candidate(ws, cls)
        assert mismatch is not None and mismatch.index == 3
        assert abs(mismatch.expected - 0.25) <= 1e-15
        lam, eta = 5.0 / 6.0, 3.0 / 5.0  # independent oracle for the candidate value
        by_hand = lam**3 * eta * (eta + 1.0) * (eta + 2.0) / 6.0
        assert abs(mismatch.found - by_hand) <= 1e-12
        assert abs(mismatch.expected - mismatch.found) > 9e-3


LAMBDA_GRID = (0.1, 0.25, 0.5, 0.75, 1.0)
A0_MOD_GRID = (0.05, 0.25, 0.45, 0.65, 0.85)
A0_ARG_GRID = (0.0, np.pi / 3.0, 2.1, np.pi)
A1_FRACTION_GRID = (-0.6, 0.25, 0.8)
C_GRID = (1.0, -0.7)
GRID_ETA = 1.3


def _certification_grid(order):
    for lam in LAMBDA_GRID:
        cls = Binomial(lam=lam, eta=GRID_ETA, gamma=(GRID_ETA + 1) / GRID_ETA)
        ws = family_weights(cls, order)
        for a0_mod in A0_MOD_GRID:
            for a0_arg in A0_ARG_GRID:
                a0 = a0_mod * np.exp(1j * a0_arg)
                interval = selfmap_interval(a0, lam, 1.0)
                for fraction in A1_FRACTION_GRID:
                    a1 = a1_from_fraction(interval, fraction)
                    for c in C_GRID:
                        yield cls, ws, a0, a1, c


def test_criterion_04_hermitian_certification_grid():
    with criterion(4, "600-cell grid Hermitian at N=96 with kernel identity"):
        started = time.monotonic()
        w = 0.3 + 0.2j
        cells = 0
        for cls, ws, a0, a1, c in _certification_grid(96):
            sp = synthesize(cls, a0, a1, c, 96)
            m = operators.build_matrix(sp, ws)
            assert operators.hermitian_deviation(m)[0] <= 1e-10
            assert operators.kernel_identity_residual(m, sp, ws, w) <= 1e-8
            cells += 1
        elapsed = time.monotonic() - started
        assert cells == 600
        assert elapsed <= 60.0, f"grid took {elapsed:.1f}s"


def test_criterion_05_perturbation_detection():
    with criterion(5, "non-real perturbations detected in every grid cell"):
        rotation = np.exp(0.1j)
        for cls, ws, a0, a1, c in _certification_grid(64):
            sp_a1 = synthesize(cls, a0, a1 + 0.05j, c, 64)
            assert operators.hermitian_deviation(operators.build_matrix(sp_a1, ws))[0] > 1e-3
            sp_c = synthesize(cls, a0, a1, c * rotation, 64)
            assert operators.hermitian_deviation(operators.build_matrix(sp_c, ws))[0] > 1e-3


def test_criterion_06_ode_oracle():
    with criterion(6, "generating-function ODE: families solve, Dirichlet does not"):
        for b in (0.5, 1.0, 2.0):
            k = exp_series(1.0 / (b * b), 130)
            assert verify.ode_residual(k, b, math.sqrt(2.0) * b * b) <= 1e-12
        for lam, b1 in ((1.0, 1.0), (0.6, 0.9), (0.25, 1.2)):
            eta = 1.0 / (lam * b1 * b1)
            k = binomial_series(lam, eta, 130)
            beta2 = math.sqrt(1.0 / k.coeffs[2].real)
            assert verify.ode_residual(k, b1, beta2) <= 1e-12
        k_dir = TruncatedSeries((1.0 / (np.arange(131) + 1.0)).astype(complex))
        assert verify.ode_residual(k_dir, math.sqrt(2.0), math.sqrt(3.0)) > 1e-2


def test_criterion_07_moment_condition_separation():
    with criterion(7, "Dirichlet: first two moments vanish, third does not"):
        ws = dirichlet_weights(64)
        sp = synthesize_from_weights(ws, 0.6, 0.3, 1.0)
        m0, m1, m2 = operators.hermitian_deviation(operators.build_matrix(sp, ws))[2]
        assert m0 <= 1e-10
        assert m1 <= 1e-10
        assert m2 > 1e-3


def test_criterion_08_quadrature_norms():
    with criterion(8, "integral norms match the closed forms"):
        for b in (0.5, 1.0, 2.0):
            for j in range(21):
                f = monomial(j, max(j, 1))
                got = fock_norm_quadrature(f, b * b) ** 2
                want = b ** (2 * j) * math.factorial(j)
                assert abs(got - want) <= 1e-6 * want
        for eta in (2.0, 3.0):
            ws = spaces.bergman_weights(eta, 20)
            for j in range(21):
                f = monomial(j, max(j, 1))
                got = bergman_norm_quadrature(f, eta) ** 2
                want = float(ws.beta[j] ** 2)
                assert abs(got - want) <= 1e-8 * want
        for j in range(21):
            assert abs(hardy_norm_quadrature(monomial(j, max(j, 1))) - 1.0) <= 1e-10


def test_criterion_09_selfmap_sharpness():
    with criterion(9, "self-map interval endpoints are sharp on the circle"):
        rng = np.random.default_rng(2024)
        accepted = 0
        while accepted < 100:
            lam = rng.uniform(0.05, 1.0)
            rho = rng.uniform(0.3, 1.0 / math.sqrt(lam))
            a0_mod = rng.uniform(0.05, 0.95) * rho
            if rho * a0_mod * lam >= 0.99:
                continue
            a0 = a0_mod * np.exp(2j * np.pi * rng.uniform())
            interval = selfmap_interval(a0, lam, rho)
            for endpoint in (interval.a1_min, interval.a1_max):
                top = mobius_circle_max(a0, endpoint, lam, rho)
                assert abs(top - rho) <= 1e-8 * rho
                outside = mobius_circle_max(a0, endpoint * (1.0 + 1e-3), lam, rho)
                assert outside > rho + 1e-12
            accepted += 1


def test_criterion_10_sqrt_lambda_lift():
    with criterion(10, "10^4 admissible pairs lift to the 1/sqrt(lam) disk"):
        rng = np.random.default_rng(777)
        for _ in range(10_000):
            lam = rng.uniform(0.02, 1.0)
            a0 = rng.uniform(0.0, 0.999) * np.exp(2j * np.pi * rng.uniform())
            interval = selfmap_interval(a0, lam, 1.0)
            a1 = a1_from_fraction(interval, rng.uniform(-1.0, 1.0))
            # `wco region A0 LAM` and `wco region A0 LAM 1/sqrt(LAM)`
            assert interval.contains(a1)
            assert selfmap_interval(a0, lam, 1.0 / math.sqrt(lam)).contains(a1)


def test_criterion_11_dilation_conjugation():
    with criterion(11, "dilation conjugation identity at N=64"):
        for lam in (0.1, 0.25, 0.5, 0.75):
            for eta in (0.5, 1.0, 2.0):
                cls = Binomial(lam=lam, eta=eta, gamma=(eta + 1) / eta)
                interval = selfmap_interval(0.45 * np.exp(0.8j), lam, 1.0)
                sp = synthesize(
                    cls, 0.45 * np.exp(0.8j), a1_from_fraction(interval, 0.5), 1.0, 64
                )
                m = operators.build_matrix(sp, family_weights(cls, 64))
                assert operators.conjugation_check(m, sp) <= 1e-10


def test_criterion_12_fock_bound_dominance():
    with criterion(12, "Gaussian norm bound dominates growing finite sections"):
        rng = np.random.default_rng(31337)
        for _ in range(50):
            b = rng.uniform(0.5, 2.0)
            a0_mod = rng.uniform(0.0, 0.7)
            a0 = a0_mod * np.exp(2j * np.pi * rng.uniform())
            a1 = rng.uniform(0.05, 0.97 - a0_mod)
            c = rng.uniform(0.3, 2.0)
            cls = Exponential(b_sq=b * b)
            sp = synthesize(cls, a0, a1, c, 64)
            log_bound = operators.fock_log_bound(sp)
            sigmas = []
            for n in (16, 32, 64):
                m = operators.build_matrix(synthesize(cls, a0, a1, c, n), fock_weights(b, n))
                sigmas.append(operators.finite_section_norm(m))
            # sections are nested compressions: sigma_max must not decrease,
            # and the analytic bound caps the squared operator norm
            assert sigmas[0] <= sigmas[1] * (1 + 1e-12)
            assert sigmas[1] <= sigmas[2] * (1 + 1e-12)
            assert 2.0 * math.log(sigmas[2]) <= log_bound + math.log1p(1e-12)


def test_criterion_13_norm_equivalence():
    with criterion(13, "flat-weight norm squeezed by the Hardy norm"):
        rng = np.random.default_rng(555)
        for _ in range(1000):
            f = random_polynomial(rng, 30)
            out = verify.norm_equivalence_check(f)
            assert out.violation <= verify.NORM_BOUND_SLACK
        single = verify.norm_equivalence_check(monomial(1, 1))
        assert single.flat / single.hardy >= 2.0 - 1e-6


def test_criterion_14_derivative_sandwich():
    with criterion(14, "derivative-norm sandwich for eta < 1"):
        rng = np.random.default_rng(909)
        for eta in (0.1, 0.3, 0.7, 0.9):
            for _ in range(250):
                f = random_polynomial(rng, 10)
                out = spaces.derivative_norm_bounds(f, eta)
                slack = 1e-12 * max(1.0, out.upper)
                assert out.lower - slack <= out.value <= out.upper + slack
