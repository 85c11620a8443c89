"""Classification, kernels, inner products, and integral norms."""

import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wco.series import TruncatedSeries, monomial, polynomial
from wco.spaces import (
    Binomial,
    DomainError,
    Exponential,
    NotHospitable,
    WeightSequence,
    bergman_weights,
    classify_weights,
    derivative_norm_bounds,
    dirichlet_weights,
    family_weights,
    flat_weights,
    fock_weights,
    hardy_weights,
    integral_norm,
    kernel,
    norm,
    verify_candidate,
    weights_from_json,
)
from wco.spaces import _angular_nodes, _eval_on_grid, _gauss_jacobi, _gauss_laguerre


def fock_norm(f, b_sq):
    return integral_norm(Exponential(b_sq=b_sq), f)[1]


def disk_norm(f, eta):
    return integral_norm(Binomial(1.0, eta), f)[1]


def circle_norm(f):
    return integral_norm(Binomial(1.0, 1.0), f)[1]


def inner_product(f, g, ws):
    """<f, g> = sum_j f(j) conj(g(j)) beta(j)^2, the oracle of the
    reproducing-kernel tests."""
    return complex(np.sum(f.coeffs * np.conj(g.coeffs) * ws.beta**2))


class TestClassify:
    def test_flat_weights_rejected_with_exact_lambda(self):
        cls = classify_weights(WeightSequence([1.0, 2.0, 2.0]))
        assert isinstance(cls, NotHospitable)
        assert cls.reason == "lambda-exceeds-one"
        assert abs(cls.lam - 1.75) < 1e-12

    def test_hardy(self):
        cls = classify_weights(WeightSequence([1.0, 1.0, 1.0]))
        assert isinstance(cls, Binomial)
        assert abs(cls.lam - 1.0) < 1e-12 and abs(cls.eta - 1.0) < 1e-12

    def test_bergman(self):
        cls = classify_weights(WeightSequence([1.0, math.sqrt(0.5), math.sqrt(1.0 / 3.0)]))
        assert isinstance(cls, Binomial)
        assert abs(cls.lam - 1.0) < 1e-9 and abs(cls.eta - 2.0) < 1e-9

    def test_gaussian_case(self):
        b_sq = 1.7
        beta1, beta2 = math.sqrt(b_sq), math.sqrt(2.0 * b_sq * b_sq)
        cls = classify_weights(WeightSequence([1.0, beta1, beta2]))
        assert isinstance(cls, Exponential)
        assert abs(cls.b_sq - b_sq) < 1e-12

    def test_negative_lambda_rejected(self):
        # beta2 large makes gamma < 1
        cls = classify_weights(WeightSequence([1.0, 1.0, 10.0]))
        assert isinstance(cls, NotHospitable)
        assert cls.reason == "lambda-negative"

    def test_nonpositive_inputs(self):
        with pytest.raises(ValueError):
            classify_weights(WeightSequence([1.0, 0.0, 1.0]))

    def test_tiny_lambda_folds_into_exponential(self):
        # lam within classification tolerance of zero is the gaussian limit
        b1 = 1.0
        for lam in (5e-10, -5e-10):
            gamma = 1.0 + lam * b1 * b1
            beta2 = math.sqrt(2.0 * b1**4 / gamma)
            cls = classify_weights(WeightSequence([1.0, b1, beta2]))
            assert isinstance(cls, Exponential)

    def test_lambda_just_above_one_clamped(self):
        # within tolerance of the right endpoint counts as lam = 1
        b1 = 1.0
        lam = 1.0 + 5e-10
        beta2 = math.sqrt(2.0 * b1**4 / (1.0 + lam * b1 * b1))
        cls = classify_weights(WeightSequence([1.0, b1, beta2]))
        assert isinstance(cls, Binomial)
        assert cls.lam == 1.0

    def test_family_round_trip(self):
        # classifying the first two family weights recovers the family
        for lam in (0.1, 0.25, 0.5, 1.0):
            for eta in (0.5, 1.0, 2.0, 3.7):
                ws = family_weights(Binomial(lam, eta, (eta + 1) / eta), 8)
                cls = classify_weights(WeightSequence(ws.beta[:3]))
                assert isinstance(cls, Binomial)
                assert abs(cls.lam - lam) < 1e-9 * max(1, lam)
                assert abs(cls.eta - eta) < 1e-9 * max(1, eta)
        for b in (0.5, 1.0, 2.0):
            ws = fock_weights(b, 8)
            cls = classify_weights(WeightSequence(ws.beta[:3]))
            assert isinstance(cls, Exponential)
            assert abs(cls.b_sq - b * b) < 1e-9 * max(1, b * b)

    @settings(max_examples=300, deadline=None)
    @given(
        beta1=st.floats(min_value=0.0, exclude_min=True, allow_infinity=False),
        beta2=st.floats(min_value=0.0, exclude_min=True, allow_infinity=False),
    )
    def test_every_finite_positive_pair_gets_one_variant(self, beta1, beta2):
        try:
            cls = classify_weights(WeightSequence([1.0, beta1, beta2]))
        except ValueError as exc:
            # only where gamma or lambda cannot be held in a double
            assert "floating-point range" in str(exc)
            assert not (1e-50 <= beta1 <= 1e50 and 1e-50 <= beta2 <= 1e50)
            return
        kinds = [isinstance(cls, kind) for kind in (Exponential, Binomial, NotHospitable)]
        assert kinds.count(True) == 1
        assert math.isfinite(cls.gamma)
        if isinstance(cls, Exponential):
            assert 0.0 < cls.b_sq < math.inf
        elif isinstance(cls, Binomial):
            assert 0.0 < cls.lam <= 1.0 and 0.0 < cls.eta < math.inf
        elif cls.reason == "lambda-negative":
            assert -math.inf < cls.lam < 0.0
        else:
            assert cls.reason == "lambda-exceeds-one" and 1.0 < cls.lam < math.inf


class TestVerifyCandidate:
    def test_hardy_ok(self):
        ws = hardy_weights(64)
        assert verify_candidate(ws, classify_weights(ws)) is None

    def test_dirichlet_fails_at_index_three(self):
        ws = dirichlet_weights(64)
        cls = classify_weights(WeightSequence(ws.beta[:3]))
        assert isinstance(cls, Binomial)
        assert abs(cls.lam - 5.0 / 6.0) < 1e-12
        assert abs(cls.eta - 3.0 / 5.0) < 1e-12
        mismatch = verify_candidate(ws, cls)
        assert mismatch is not None
        assert mismatch.index == 3
        assert abs(mismatch.expected - 0.25) < 1e-12
        # independent evaluation of lam^3 eta (eta+1)(eta+2) / 6
        lam, eta = 5.0 / 6.0, 3.0 / 5.0
        by_hand = lam**3 * eta * (eta + 1) * (eta + 2) / 6.0
        assert abs(mismatch.found - by_hand) < 1e-12
        assert abs(mismatch.expected - mismatch.found) > 9e-3

    def test_gaussian_weights_ok(self):
        for b in (0.5, 1.0, 2.0):
            ws = fock_weights(b, 64)
            cls = classify_weights(ws)
            assert isinstance(cls, Exponential)
            assert verify_candidate(ws, cls) is None

    def test_inhospitable_input_rejected(self):
        ws = flat_weights(8)
        with pytest.raises(ValueError):
            verify_candidate(ws, classify_weights(ws))

    def test_classify_weights_flags_mismatch(self):
        cls = classify_weights(dirichlet_weights(16))
        assert isinstance(cls, NotHospitable)
        assert cls.reason == "coefficient-mismatch"
        assert cls.mismatch.index == 3


class TestWeightSequence:
    def test_beta0_must_be_one(self):
        with pytest.raises(ValueError):
            WeightSequence(np.array([2.0, 1.0]))

    def test_positive_required(self):
        with pytest.raises(ValueError):
            WeightSequence(np.array([1.0, -1.0]))

    def test_finite_required(self):
        for bad in ([1.0, np.nan, 2.0], [np.nan, 1.0], [1.0, np.inf]):
            with pytest.raises(ValueError, match="finite"):
                WeightSequence(np.array(bad))

    def test_family_weights_require_positive_coefficients(self):
        # lam < 0 alternates the signs of (1 - lam z)**(-eta)
        with pytest.raises(ValueError, match=r"generating coefficient 1 is not positive: -0\.75"):
            family_weights(Binomial(lam=-0.5, eta=1.5), 8)

    def test_family_weights_name_the_first_failing_coefficient(self):
        # 1/j! is subnormal from j = 171 and underflows to 0 from j = 178 on
        # the b = 1 Fock space; the first index is named, with its test
        with pytest.raises(ValueError, match="generating coefficient 171 is not normal"):
            family_weights(Exponential(b_sq=1.0), 200)

    @pytest.mark.parametrize("eta", [0.0, -1.5])
    def test_binomial_refuses_non_positive_eta(self, eta):
        with pytest.raises(ValueError, match="eta must be positive"):
            Binomial(lam=0.5, eta=eta)

    @pytest.mark.parametrize("b_sq", [0.0, 1e-310, -1.0, math.inf, math.nan])
    def test_exponential_refuses_b_sq_outside_the_normal_range(self, b_sq):
        with pytest.raises(ValueError, match="b_sq must be a positive normal double"):
            Exponential(b_sq=b_sq)

    @pytest.mark.parametrize(
        "cls, order, index",
        [(Exponential(b_sq=1.0), 175, 171), (Binomial(lam=1e-5, eta=1.0), 64, 62)],
        ids=["fock", "binomial"],
    )
    def test_family_weights_refuse_subnormal_coefficients(self, cls, order, index):
        # 1/171! and 1e-310 carry fewer than 53 bits, so their weights would
        # not be the family's
        with pytest.raises(ValueError, match=f"generating coefficient {index} is not normal"):
            family_weights(cls, order)

    def test_json_round_trip(self):
        ws = weights_from_json({"order": 2, "beta": [1, 2.5, 3.0]})
        assert ws.beta.tolist() == [1.0, 2.5, 3.0]

    @pytest.mark.parametrize(
        "obj, message",
        [
            ({"beta": [1, 1, 1]}, '"order" key'),
            ([1, 1, 1], '"order" key'),
            ({"order": 2.5, "beta": [1, 1, 1]}, "integer"),
            ({"order": 2}, '"beta"'),
            ({"order": 1, "beta": [1, "2"]}, '"beta"'),
            ({"order": 3, "beta": [1, 1, 1]}, "count"),
            ({"order": 2, "beta": [1, float("nan"), 1]}, r"beta\[1\] is not finite"),
        ],
    )
    def test_json_shape_rejected(self, obj, message):
        with pytest.raises(ValueError, match=message):
            weights_from_json(obj)


class TestKernels:
    def test_kernel_at_origin_is_constant_one(self):
        for ws in (hardy_weights(16), fock_weights(1.5, 16), dirichlet_weights(16)):
            k0 = kernel(0.0, ws)
            assert np.allclose(k0.coeffs, monomial(0, 16).coeffs)

    def test_reproduces_monomial(self):
        ws = hardy_weights(32)
        w = 0.4 - 0.3j
        f = monomial(2, 32)
        assert abs(inner_product(f, kernel(w, ws), ws) - w**2) < 1e-14

    def test_reproducing_property_random(self):
        rng = np.random.default_rng(31)
        order = 48
        for ws in (hardy_weights(order), bergman_weights(2.0, order), fock_weights(1.0, order)):
            for _ in range(20):
                deg = rng.integers(0, order - 2)
                coeffs = np.zeros(order + 1, dtype=complex)
                coeffs[: deg + 1] = rng.standard_normal(deg + 1) + 1j * rng.standard_normal(deg + 1)
                f = TruncatedSeries(coeffs)
                w = 0.9 * rng.uniform(0, 1) * np.exp(2j * np.pi * rng.uniform())
                assert abs(inner_product(f, kernel(w, ws), ws) - f(w)) < 1e-10

    def test_kernel_norm_is_geometric_sum(self):
        ws = hardy_weights(64)
        w = 0.5
        k = kernel(w, ws)
        assert abs(inner_product(k, k, ws).real - 1.0 / (1.0 - w * w)) < 1e-12

    def test_outside_disk_rejected(self):
        with pytest.raises(DomainError):
            kernel(1.0, hardy_weights(4))


class TestInnerProduct:
    def test_monomial_orthogonality(self):
        ws = bergman_weights(3.0, 10)
        for i in range(5):
            for j in range(5):
                got = inner_product(monomial(i, 10), monomial(j, 10), ws)
                if i == j:
                    assert abs(got - ws.beta[j] ** 2) < 1e-15
                else:
                    assert got == 0

    def test_norm_matches_inner_product(self):
        rng = np.random.default_rng(37)
        ws = dirichlet_weights(20)
        f = TruncatedSeries(rng.standard_normal(21) + 1j * rng.standard_normal(21))
        assert abs(norm(f, ws) ** 2 - inner_product(f, f, ws).real) < 1e-12


class TestFockQuadrature:
    def test_monomials(self):
        for b in (0.5, 1.0, 2.0):
            for j in (0, 1, 3, 7, 20):
                f = monomial(j, j if j else 0)
                got = fock_norm(f, b * b) ** 2
                want = b ** (2 * j) * math.factorial(j)
                assert abs(got - want) <= 1e-6 * want

    def test_constant_is_normalized(self):
        assert abs(fock_norm(monomial(0, 0), 2.3) - 1.0) < 1e-12

    def test_one_plus_z(self):
        got = fock_norm(polynomial([1, 1]), 1.0) ** 2
        assert abs(got - 2.0) <= 2e-6

    def test_agrees_with_series_norm(self):
        rng = np.random.default_rng(41)
        for b in (0.5, 1.0, 2.0):
            ws = fock_weights(b, 12)
            for _ in range(5):
                f = TruncatedSeries(rng.standard_normal(13) + 1j * rng.standard_normal(13))
                got = fock_norm(f, b * b)
                want = norm(f, ws)
                assert abs(got - want) <= 1e-6 * want


#: the order of the 40-digit mpmath references
MPMATH_N = 50


def assert_all_roots(roots):
    """n distinct zeros of a degree-n polynomial are all of its zeros."""
    assert len({mpmath.nstr(x, 30) for x in roots}) == len(roots)


def max_relative_error(values, reference):
    return float(max(abs((mpmath.mpf(float(x)) - r) / r) for x, r in zip(values, reference)))


def jacobi_derivative(n, a, x):
    """P_n^(a, 0)'(x) = (n + a + 1)/2 P_(n-1)^(a + 1, 1)(x)."""
    return (n + a + 1) / 2 * mpmath.jacobi(n - 1, a + 1, 1, x)


class TestGaussLaguerre:
    """The Gauss-Laguerre rule of the Gaussian plane against the moments
    integral_0^inf e^(-t) t^k/k! dt = 1."""

    @pytest.mark.parametrize("n", [1, 4, 50, 251])
    def test_nodes_weights_and_moments(self, n):
        t, w = _gauss_laguerre(n)
        assert t.shape == w.shape == (n,)
        assert np.all(np.diff(t) > 0.0) and t[0] > 0.0
        assert np.all(w >= 0.0) and w[0] > 0.0
        assert not (t.flags.writeable or w.flags.writeable)
        # w t^k / k! by a running product, so no t^k or k! leaves the range
        terms, worst = w.copy(), abs(float(np.sum(w)) - 1.0)
        for k in range(1, 2 * n):
            terms *= t / k
            worst = max(worst, abs(float(np.sum(terms)) - 1.0))
        print(f"n={n}: worst moment error {worst:.2e}")
        assert worst <= 1e-14

    @pytest.mark.parametrize("n", [1, 4, 50, 251])
    def test_matches_scipy(self, n):
        special = pytest.importorskip("scipy.special")
        x, v = special.roots_laguerre(n)
        t, w = _gauss_laguerre(n)
        assert np.max(np.abs(t - x) / x) <= 1e-15
        normal = v > 1e-290  # scipy keeps weights that this rule flushes to 0
        np.testing.assert_allclose(w[normal], v[normal], rtol=1e-10)

    def test_matches_mpmath(self):
        n = MPMATH_N
        t, w = _gauss_laguerre(n)
        with mpmath.workdps(40):
            nodes, weights = [], []
            for x in map(mpmath.mpf, t):
                for _ in range(6):  # Newton steps, with L_n' = -L_(n-1)^(1)
                    x += mpmath.laguerre(n, 0, x) / mpmath.laguerre(n - 1, 1, x)
                nodes.append(x)
                weights.append(x / ((n + 1) * mpmath.laguerre(n + 1, 0, x)) ** 2)
            assert_all_roots(nodes)
            assert max_relative_error(t, nodes) <= 4e-16
            assert max_relative_error(w, weights) <= 5e-14


#: alpha = eta - 2 for the disk norms, and alpha = 0 (Gauss-Legendre)
GAUSS_JACOBI_ALPHAS = [
    eta - 2.0 for eta in (1.001, 1.01, 1.5, 3.0, 5.5, 10.0, 30.0, 100.0, 500.0)
] + [0.0]


class TestGaussJacobi:
    """The Gauss-Jacobi rule against closed-form Beta moments, scipy and mpmath."""

    @pytest.mark.parametrize("n", [7, 50, 200])
    @pytest.mark.parametrize("alpha", GAUSS_JACOBI_ALPHAS)
    def test_nodes_weights_and_moments(self, alpha, n):
        s, w = _gauss_jacobi(n, alpha)
        assert s.shape == w.shape == (n,)
        x = 2.0 * s - 1.0
        assert np.all(np.diff(x) > 0.0) and -1.0 < x[0] and x[-1] < 1.0
        assert np.all(w > 0.0)
        assert not (s.flags.writeable or w.flags.writeable)
        worst = 0.0
        for m in range(min(2 * n - 1, 60) + 1):
            # integral_0^1 s^m (1 - s)^alpha ds = B(m + 1, alpha + 1)
            beta_fn = math.exp(
                math.lgamma(m + 1.0) + math.lgamma(alpha + 1.0) - math.lgamma(m + alpha + 2.0)
            )
            worst = max(worst, abs(float(np.sum(w * s**m)) - beta_fn) / beta_fn)
        print(f"alpha={alpha:g} n={n}: worst moment relative error {worst:.2e}")
        assert worst <= 1e-11

    @pytest.mark.parametrize("alpha", GAUSS_JACOBI_ALPHAS)
    def test_matches_scipy(self, alpha):
        special = pytest.importorskip("scipy.special")
        x, v = special.roots_jacobi(200, alpha, 0.0)
        s, w = _gauss_jacobi(200, alpha)
        assert np.max(np.abs((2.0 * s - 1.0) - x)) <= 1e-15
        np.testing.assert_allclose(w * 2.0 ** (alpha + 1.0), v, rtol=1e-7)

    @pytest.mark.parametrize("alpha", [-0.999, 0.0, 28.0, 498.0])
    def test_matches_mpmath(self, alpha):
        n = MPMATH_N
        s, w = _gauss_jacobi(n, alpha)
        with mpmath.workdps(40):
            a = mpmath.mpf(alpha)
            nodes, weights = [], []
            for x in (2 * mpmath.mpf(float(v)) - 1 for v in s):
                for _ in range(6):  # Newton steps on P_n^(a, 0)(x)
                    x -= mpmath.jacobi(n, a, 0, x) / jacobi_derivative(n, a, x)
                nodes.append((x + 1) / 2)
                # the Gauss-Jacobi weight, over 2^(a + 1) for the interval [0, 1]
                weights.append(1 / ((1 - x) * (1 + x) * jacobi_derivative(n, a, x) ** 2))
            assert_all_roots(nodes)
            assert max(abs(mpmath.mpf(float(v)) - x) for v, x in zip(s, nodes)) <= 2.3e-16
            assert max_relative_error(w, weights) <= 5e-13


def test_grid_evaluation_ignores_zero_padding():
    probe = polynomial([1.0, 0.5, -0.25, 1 / 3, 0.0, -0.125, 0.2])
    radii = np.sqrt(np.linspace(0.05, 0.95, 7))
    padded = _eval_on_grid(probe.truncated(512), radii, 1025)
    assert np.array_equal(padded, _eval_on_grid(probe, radii, 1025))


class TestDiskQuadrature:
    def test_bergman_monomials(self):
        for eta in (2.0, 3.0):
            ws = bergman_weights(eta, 20)
            for j in (0, 1, 2, 5, 11, 20):
                f = monomial(j, j if j else 0)
                got = disk_norm(f, eta) ** 2
                want = float(ws.beta[j] ** 2)
                assert abs(got - want) <= 1e-8 * want

    def test_bergman_one_plus_z(self):
        got = disk_norm(polynomial([1, 1]), 3.0) ** 2
        assert abs(got - 4.0 / 3.0) < 1e-8

    def test_eta_at_most_one_refused(self):
        # eta = 1 is the circle, and eta < 1 has no integral form at all
        assert integral_norm(Binomial(1.0, 1.0), monomial(1, 1))[0] == "circle"
        with pytest.raises(DomainError, match="no integral norm for eta < 1"):
            disk_norm(monomial(1, 1), 0.5)

    def test_hardy_monomials(self):
        for j in (0, 1, 4, 9):
            got = circle_norm(monomial(j, j if j else 0))
            assert abs(got - 1.0) < 1e-10

    def test_agreement_random_polynomials(self):
        rng = np.random.default_rng(43)
        for eta in (2.0, 3.0, 5.5):
            ws = bergman_weights(eta, 12)
            for _ in range(5):
                f = TruncatedSeries(rng.standard_normal(13) + 1j * rng.standard_normal(13))
                got = disk_norm(f, eta)
                want = norm(f, ws)
                assert abs(got - want) <= 1e-6 * want
        ws = hardy_weights(12)
        for _ in range(5):
            f = TruncatedSeries(rng.standard_normal(13) + 1j * rng.standard_normal(13))
            assert abs(circle_norm(f) - norm(f, ws)) <= 1e-6 * norm(f, ws)

    @pytest.mark.parametrize(
        "lam, eta",
        [(0.5, 3.0), (0.3, 30.0), (0.9, 1.0), (0.05, 2.0), (0.7, 500.0), (0.999, 1000.0)],
    )
    def test_dilated_rule_matches_the_series_norm(self, lam, eta):
        """Below lam = 1 the rule is the lam = 1 one on the disk of radius
        1/sqrt(lam): the norm of f over (lam, eta) is that of f(z / sqrt(lam))
        over (1, eta)."""
        f = polynomial([1.0, 0.5, -0.25, 1 / 3, 0.0, -0.125, 0.2]).truncated(64)
        domain, got = integral_norm(Binomial(lam, eta), f)
        assert domain == ("circle" if eta == 1.0 else "disk")
        want = norm(f, family_weights(Binomial(lam, eta), 64))
        assert abs(got - want) <= 1e-13 * want

    def test_dilated_rule_sees_a_wrong_lambda(self):
        f = polynomial([1.0, 0.5, -0.25, 1 / 3, 0.0, -0.125, 0.2]).truncated(64)
        want = norm(f, family_weights(Binomial(0.5, 3.0), 64))
        assert abs(integral_norm(Binomial(0.6, 3.0), f)[1] - want) > 1e-6 * want


class TestDerivativeSandwich:
    def test_single_monomial_by_hand(self):
        # f = z at eta = 1/2: value 1, T = 2, bounds [0.75, 3]
        out = derivative_norm_bounds(monomial(1, 1), 0.5)
        assert abs(out.value - 1.0) < 1e-14
        assert abs(out.lower - 0.75) < 1e-14
        assert abs(out.upper - 3.0) < 1e-14

    def test_constant(self):
        out = derivative_norm_bounds(monomial(0, 4), 0.3)
        assert out.value == 0.0 and out.lower == 0.0 and out.upper == 0.0

    def test_random_sandwich(self):
        rng = np.random.default_rng(47)
        for eta in (0.1, 0.3, 0.7, 0.9):
            for _ in range(50):
                f = TruncatedSeries(rng.standard_normal(11) + 1j * rng.standard_normal(11))
                out = derivative_norm_bounds(f, eta)
                assert out.lower <= out.value * (1 + 1e-12) + 1e-12
                assert out.value <= out.upper * (1 + 1e-12) + 1e-12

    def test_eta_out_of_range(self):
        with pytest.raises(DomainError):
            derivative_norm_bounds(monomial(1, 1), 1.5)


def test_angular_nodes_follow_the_degree_not_the_order():
    probe = polynomial([1.0, 0.5, -0.25, 1 / 3, 0.0, -0.125, 0.2])
    assert _angular_nodes(probe.truncated(512)) == 13
    assert _angular_nodes(monomial(300, 512)) == 601
    assert _angular_nodes(monomial(300, 300)) == 601
    # the smaller rule is still exact for |f|^2 on the circle
    f = probe.truncated(512)
    exact = float(np.sum(np.abs(f.coeffs) ** 2))
    assert circle_norm(f) ** 2 == pytest.approx(exact, rel=1e-14)
