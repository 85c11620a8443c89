"""Truncated-series arithmetic: worked examples and ring properties."""

import numpy as np
import pytest

from wco.series import (
    OrderMismatchError,
    TruncatedSeries,
    binomial_series,
    compose_poly,
    exp_series,
    monomial,
    one,
    polynomial,
    series_from_json,
)


def rand_series(rng, order):
    return TruncatedSeries(
        rng.standard_normal(order + 1) + 1j * rng.standard_normal(order + 1)
    )


class TestMul:
    def test_binomial_square(self):
        f = polynomial([1, 1], order=2)
        prod = f * f
        assert np.allclose(prod.coeffs, [1, 2, 1])

    def test_identity_element(self):
        rng = np.random.default_rng(7)
        f = rand_series(rng, 12)
        assert np.array_equal((f * one(12)).coeffs, f.coeffs)

    def test_geometric_times_one_minus_z(self):
        # hand convolution at N=5: all higher coefficients cancel
        geom = binomial_series(1.0, 1.0, 5)
        assert np.allclose(geom.coeffs, np.ones(6))
        prod = geom * polynomial([1, -1], order=5)
        assert np.allclose(prod.coeffs, [1, 0, 0, 0, 0, 0], atol=0)

    def test_order_mismatch_raises(self):
        with pytest.raises(OrderMismatchError):
            polynomial([1], order=3) * polynomial([1], order=4)

    def test_commutative_bitwise(self):
        rng = np.random.default_rng(3)
        f, g = rand_series(rng, 40), rand_series(rng, 40)
        assert np.array_equal((f * g).coeffs, (g * f).coeffs)

    def test_associative_and_distributive(self):
        rng = np.random.default_rng(4)
        f, g, h = (rand_series(rng, 24) for _ in range(3))
        assoc = ((f * g) * h).coeffs - (f * (g * h)).coeffs
        dist = (f * (g + h)).coeffs - (f * g + f * h).coeffs
        scale = np.max(np.abs((f * g * h).coeffs)) + 1.0
        assert np.max(np.abs(assoc)) <= 1e-13 * scale
        assert np.max(np.abs(dist)) <= 1e-13 * scale

    def test_prefix_exactness_against_higher_order(self):
        # entries 0..N of a product must not depend on the truncation order
        rng = np.random.default_rng(5)
        lo = rand_series(rng, 16)
        hi_f = TruncatedSeries(np.concatenate([lo.coeffs, rng.standard_normal(16)]))
        g_lo = rand_series(rng, 16)
        g_hi = TruncatedSeries(np.concatenate([g_lo.coeffs, rng.standard_normal(16)]))
        assert np.array_equal(
            (lo * g_lo).coeffs, (hi_f * g_hi).coeffs[:17]
        )


class TestPower:
    def test_zeroth_power(self):
        rng = np.random.default_rng(11)
        f = rand_series(rng, 8)
        assert np.array_equal((f ** 0).coeffs, one(8).coeffs)

    def test_affine_square(self):
        a0, a1 = 0.3 + 0.1j, -0.7
        f = polynomial([a0, a1], order=2)
        sq = f ** 2
        assert np.allclose(sq.coeffs, [a0 * a0, 2 * a0 * a1, a1 * a1])

    def test_binomial_power_identity(self):
        # (1 - lam z)^(-eta*m) computed two ways
        lam, eta, m = 0.8, 1.3, 3
        lhs = binomial_series(lam, eta, 40) ** m
        rhs = binomial_series(lam, eta * m, 40)
        assert np.max(np.abs(lhs.coeffs - rhs.coeffs)) <= 1e-12 * np.max(
            np.abs(rhs.coeffs)
        )

    def test_power_peels_one_factor_exactly(self):
        rng = np.random.default_rng(12)
        f = rand_series(rng, 20)
        assert np.array_equal((f ** 5).coeffs, ((f ** 4) * f).coeffs)

    def test_negative_power_rejected(self):
        with pytest.raises(ValueError):
            one(3) ** -1


class TestDerivative:
    def test_polynomial(self):
        d = polynomial([1, 1, 1]).derivative()
        assert np.allclose(d.coeffs, [1, 2, 0])

    def test_exponential_ode(self):
        a = 0.7 - 0.2j
        f = exp_series(a, 30)
        d = f.derivative()
        assert np.allclose(d.coeffs[:30], (a * f).coeffs[:30], rtol=1e-14)

    def test_binomial_shift(self):
        lam, eta = 0.6, 0.9
        d = binomial_series(lam, eta, 30).derivative()
        expected = lam * eta * binomial_series(lam, eta + 1.0, 30)
        assert np.allclose(d.coeffs[:30], expected.coeffs[:30], rtol=1e-13)

    def test_product_rule(self):
        rng = np.random.default_rng(13)
        f, g = rand_series(rng, 20), rand_series(rng, 20)
        lhs = (f * g).derivative()
        rhs = f.derivative() * g + f * g.derivative()
        assert np.allclose(lhs.coeffs[:20], rhs.coeffs[:20], atol=1e-12)

    def test_z_times_derivative_is_exact(self):
        f = exp_series(1.0, 10)
        zd = f.z_times_derivative()
        assert np.allclose(zd.coeffs, np.arange(11) * f.coeffs)


class TestEvaluate:
    def test_at_zero(self):
        assert polynomial([1, 1, 1])(0) == 1

    def test_exponential_against_library(self):
        f = exp_series(1.0, 40)
        assert abs(f(0.5) - np.exp(0.5)) < 1e-12

    def test_geometric_sum(self):
        f = binomial_series(1.0, 1.0, 60)
        assert abs(f(0.5) - 2.0) < 1e-12

    def test_vectorized(self):
        f = polynomial([1, 2, 3])
        z = np.array([0.0, 1.0, 1j])
        assert np.allclose(f(z), [1, 6, 1 + 2j + 3 * 1j**2])


class TestCompose:
    def test_square_pulls_through(self):
        rng = np.random.default_rng(17)
        g = rand_series(rng, 10)
        assert np.array_equal(compose_poly(monomial(2, 10), g).coeffs, (g ** 2).coeffs)

    def test_identity_map(self):
        rng = np.random.default_rng(18)
        f = rand_series(rng, 10)
        z = monomial(1, 10)
        assert np.allclose(compose_poly(f, z).coeffs, f.coeffs)

    def test_affine(self):
        f = polynomial([1, 1], order=4)
        g = polynomial([0.5, 0.2], order=4)
        out = compose_poly(f, g)
        assert np.allclose(out.coeffs, [1.5, 0.2, 0, 0, 0])


class TestConstructors:
    def test_hardy_generating_function(self):
        assert np.allclose(binomial_series(1.0, 1.0, 20).coeffs, np.ones(21))

    def test_bergman_generating_function(self):
        got = binomial_series(1.0, 2.0, 20).coeffs.real
        assert np.allclose(got, np.arange(21) + 1.0)

    def test_gaussian_weights(self):
        # coefficient j of exp(z/b^2) is 1/(b^(2j) j!)
        b = 1.3
        got = exp_series(1.0 / b**2, 15).coeffs.real
        j = np.arange(16)
        factorials = np.array([np.prod(np.arange(1, jj + 1), dtype=float) for jj in j])
        assert np.allclose(got, 1.0 / (b ** (2 * j) * factorials), rtol=1e-13)

    def test_binomial_recurrence_vs_product_formula(self):
        rng = np.random.default_rng(19)
        for _ in range(10):
            lam = rng.uniform(0.05, 1.0)
            eta = rng.uniform(0.05, 4.0)
            c = binomial_series(lam, eta, 200).coeffs.real
            js = [1, 7, 50, 123, 200]
            for j in js:
                direct = lam**j * np.prod((eta + np.arange(j)) / np.arange(1, j + 1))
                assert abs(c[j] - direct) <= 1e-13 * abs(direct)


class TestJson:
    def test_round_trip(self):
        f = series_from_json({"order": 2, "coeffs": [[1, 0.5], [0.0, -2.0], [3.0, 0]]})
        assert f.coeffs.tolist() == [1 + 0.5j, -2j, 3 + 0j]

    @pytest.mark.parametrize(
        "obj, message",
        [
            ({"coeffs": [[1, 0]]}, '"order" key'),
            ([[1, 0]], '"order" key'),
            ({"order": -1, "coeffs": []}, "integer >= 0"),
            ({"order": 0, "coeffs": [1]}, "pairs"),
            ({"order": 0, "coeffs": [[1, "0"]]}, "pairs"),
        ],
    )
    def test_shape_rejected(self, obj, message):
        with pytest.raises(ValueError, match=message):
            series_from_json(obj)

    def test_bad_count_rejected(self):
        with pytest.raises(ValueError):
            series_from_json({"order": 3, "coeffs": [[1, 0]]})


def test_immutability():
    f = polynomial([1, 2, 3])
    with pytest.raises(ValueError):
        f.coeffs[0] = 5.0


def test_division_inverts_multiplication():
    rng = np.random.default_rng(29)
    f = rand_series(rng, 24)
    g = rand_series(rng, 24)
    g = g + (3.0 - g.coeffs[0])  # pin a safely nonzero constant term
    back = (f * g) / g
    assert np.allclose(back.coeffs, f.coeffs, atol=1e-12)
