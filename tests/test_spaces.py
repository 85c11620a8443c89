"""Classification, kernels, inner products, and integral norms."""

import math

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
    bergman_norm_quadrature,
    bergman_weights,
    classify_weights,
    derivative_norm_bounds,
    dirichlet_weights,
    family_weights,
    flat_weights,
    fock_norm_quadrature,
    fock_weights,
    hardy_norm_quadrature,
    hardy_weights,
    kernel,
    norm,
    verify_candidate,
    weights_from_json,
)
from wco.spaces import (
    _angular_nodes,
    _eval_on_grid,
    _fock_tail_bound,
    _gauss_jacobi,
    _log_upper_gamma_bound,
)


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
                got = fock_norm_quadrature(f, b * b) ** 2
                want = b ** (2 * j) * math.factorial(j)
                assert abs(got - want) <= 1e-6 * want

    def test_constant_is_normalized(self):
        assert abs(fock_norm_quadrature(monomial(0, 0), 2.3) - 1.0) < 1e-12

    def test_one_plus_z(self):
        got = fock_norm_quadrature(polynomial([1, 1]), 1.0) ** 2
        assert abs(got - 2.0) <= 2e-6

    def test_agrees_with_series_norm(self):
        rng = np.random.default_rng(41)
        for b in (0.5, 1.0, 2.0):
            ws = fock_weights(b, 12)
            for _ in range(5):
                f = TruncatedSeries(rng.standard_normal(13) + 1j * rng.standard_normal(13))
                got = fock_norm_quadrature(f, b * b)
                want = norm(f, ws)
                assert abs(got - want) <= 1e-6 * want


class TestFockTailBound:
    """The closed-form tail bound against 30-digit mpmath incomplete gammas."""

    @pytest.mark.parametrize("order", [12, 64, 170])
    def test_incomplete_gamma_bound(self, order):
        import mpmath

        u = 60.0 + 2.0 * order
        s = 0.5 * np.arange(2 * order + 1) + 1.0
        bound = _log_upper_gamma_bound(s, u)
        with mpmath.workdps(30):
            exact = np.array([float(mpmath.log(mpmath.gammainc(sk, u))) for sk in s])
        # at s = 1 the bound is exact: allow rounding of the float logarithm
        assert np.all(bound >= exact - 1e-12)
        assert np.all(bound <= exact + math.log(2.0))

    @pytest.mark.parametrize("order", [12, 64, 170])
    def test_polynomial_tail(self, order):
        import mpmath

        rng = np.random.default_rng(order)
        coeffs = rng.standard_normal(order + 1) * 0.7 ** np.arange(order + 1)
        coeffs[order // 3] = 0.0
        b, u = 1.3, 60.0 + 2.0 * order
        with mpmath.workdps(30):
            tails = [mpmath.gammainc(0.5 * m + 1, u) for m in range(2 * order + 1)]
            exact = mpmath.fsum(
                abs(coeffs[p]) * abs(coeffs[q]) * mpmath.mpf(b) ** (p + q) * tails[p + q]
                for p in range(order + 1)
                for q in range(order + 1)
            )
            ratio = float(_fock_tail_bound(TruncatedSeries(coeffs), b, u) / exact)
        assert 1.0 - 1e-12 <= ratio <= 2.0


#: alpha = eta - 2 for the disk norms, and alpha = 0 (Gauss-Legendre)
GAUSS_JACOBI_ALPHAS = [eta - 2.0 for eta in (1.01, 1.5, 3.0, 5.5, 10.0, 30.0)] + [0.0]


class TestGaussJacobi:
    """The LAPACK-free Gauss-Jacobi rule against closed-form Beta moments."""

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
        assert worst <= 1e-9

    @pytest.mark.parametrize("alpha", GAUSS_JACOBI_ALPHAS)
    def test_matches_scipy(self, alpha):
        special = pytest.importorskip("scipy.special")
        x, v = special.roots_jacobi(200, alpha, 0.0)
        s, w = _gauss_jacobi(200, alpha)
        assert np.max(np.abs((2.0 * s - 1.0) - x)) <= 1e-15
        np.testing.assert_allclose(w * 2.0 ** (alpha + 1.0), v, rtol=1e-7)


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
                got = bergman_norm_quadrature(f, eta) ** 2
                want = float(ws.beta[j] ** 2)
                assert abs(got - want) <= 1e-8 * want

    def test_bergman_one_plus_z(self):
        got = bergman_norm_quadrature(polynomial([1, 1]), 3.0) ** 2
        assert abs(got - 4.0 / 3.0) < 1e-8

    def test_eta_at_most_one_refused(self):
        with pytest.raises(DomainError):
            bergman_norm_quadrature(monomial(1, 1), 1.0)

    def test_hardy_monomials(self):
        for j in (0, 1, 4, 9):
            got = hardy_norm_quadrature(monomial(j, j if j else 0))
            assert abs(got - 1.0) < 1e-10

    def test_agreement_random_polynomials(self):
        rng = np.random.default_rng(43)
        for eta in (2.0, 3.0, 5.5):
            ws = bergman_weights(eta, 12)
            for _ in range(5):
                f = TruncatedSeries(rng.standard_normal(13) + 1j * rng.standard_normal(13))
                got = bergman_norm_quadrature(f, eta)
                want = norm(f, ws)
                assert abs(got - want) <= 1e-6 * want
        ws = hardy_weights(12)
        for _ in range(5):
            f = TruncatedSeries(rng.standard_normal(13) + 1j * rng.standard_normal(13))
            assert abs(hardy_norm_quadrature(f) - norm(f, ws)) <= 1e-6 * norm(f, ws)


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
    assert hardy_norm_quadrature(f) ** 2 == pytest.approx(exact, rel=1e-14)
