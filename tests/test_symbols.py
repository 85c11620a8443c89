"""Symbol synthesis, triviality, self-map intervals, the dilation to lam = 1."""

import math

import numpy as np
import pytest

from wco.series import binomial_series
from wco.spaces import Binomial, DomainError, Exponential, WeightSequence, dirichlet_weights
from wco.symbols import (
    FIXED_ORIGIN,
    NONTRIVIAL,
    RANK_ONE,
    ZERO_WEIGHT,
    a1_from_fraction,
    mobius_circle_max,
    selfmap_excess,
    selfmap_interval,
    synthesize,
    synthesize_from_weights,
    triviality,
)

HARDY = Binomial(lam=1.0, eta=1.0, gamma=2.0)


class TestSynthesize:
    def test_exponential_closed_forms(self):
        sp = synthesize(Exponential(b_sq=1.0), 0.5, 0.2, 1.0, 12)
        assert np.allclose(sp.phi.coeffs[:2], [0.5, 0.2])
        assert np.max(np.abs(sp.phi.coeffs[2:])) == 0
        j = np.arange(13)
        factorials = np.array([math.factorial(int(x)) for x in j])
        assert np.allclose(sp.psi.coeffs, 0.5**j / factorials)

    def test_hardy_pair_coefficients(self):
        sp = synthesize(HARDY, 0.5, 0.1, 1.0, 10)
        j = np.arange(11)
        assert np.allclose(sp.psi.coeffs, 0.5**j)
        assert sp.phi.coeffs[0] == 0.5
        assert np.allclose(sp.phi.coeffs[1:], 0.1 * 0.5 ** np.arange(10))

    def test_psi_matches_generating_coefficients_scaled(self):
        # psi(j) = c * khat(j) * conj(a0)^j for both families
        a0, c = 0.4 + 0.3j, -1.2
        cls = Binomial(lam=0.7, eta=1.9, gamma=2.9 / 1.9)
        sp = synthesize(cls, a0, 0.05, c, 16)
        khat = binomial_series(cls.lam, cls.eta, 16).coeffs
        assert np.allclose(sp.psi.coeffs, c * khat * np.conj(a0) ** np.arange(17))

    def test_phi_evaluates_to_rational_form(self):
        cls = Binomial(lam=0.6, eta=1.1, gamma=2.1 / 1.1)
        a0, a1 = 0.5 * np.exp(1.3j), 0.12
        sp = synthesize(cls, a0, a1, 1.0, 128)
        rng = np.random.default_rng(51)
        z = 0.8 * rng.uniform(0, 1, 100) * np.exp(2j * np.pi * rng.uniform(0, 1, 100))
        direct = a0 + a1 * z / (1.0 - cls.lam * np.conj(a0) * z)
        assert np.max(np.abs(sp.phi(z) - direct)) <= 1e-12

    def test_phi_pole_is_the_closed_form_pole(self):
        a0, a1 = 0.4 - 0.3j, 0.2
        sp = synthesize(Binomial(lam=0.5, eta=1.7), a0, a1, 1.0, 24)
        assert sp.phi_pole == 0.5 * np.conj(a0)
        z = 0.3 + 0.1j
        assert abs(sp.phi(z) - (a0 + a1 * z / (1.0 - sp.phi_pole * z))) < 1e-14
        assert synthesize(Exponential(b_sq=1.0), a0, a1, 1.0, 24).phi_pole == 0
        # a phi known only as a series quotient has no closed-form pole
        assert synthesize_from_weights(dirichlet_weights(24), a0, a1, 1.0).phi_pole is None

    def test_inhospitable_family_rejected(self):
        from wco.spaces import NotHospitable

        with pytest.raises(ValueError):
            synthesize(NotHospitable("lambda-exceeds-one", 8.0, 1.75), 0.5, 0.1, 1.0, 8)

    def test_general_shape_matches_family_on_hardy(self):
        from wco.spaces import hardy_weights

        ws = hardy_weights(24)
        sp_family = synthesize(HARDY, 0.5, 0.1, 1.0, 24)
        sp_general = synthesize_from_weights(ws, 0.5, 0.1, 1.0)
        assert np.allclose(sp_general.psi.coeffs, sp_family.psi.coeffs, atol=1e-14)
        assert np.allclose(sp_general.phi.coeffs, sp_family.phi.coeffs, atol=1e-14)

    def test_general_shape_fixed_origin(self):
        ws = dirichlet_weights(12)
        sp = synthesize_from_weights(ws, 0.0, 0.7, 2.0)
        assert sp.trivial == FIXED_ORIGIN
        assert np.allclose(sp.psi.coeffs, [2.0] + [0.0] * 12)
        assert np.allclose(sp.phi.coeffs, [0.0, 0.7] + [0.0] * 11)

    def test_general_shape_beyond_the_double_range_is_refused(self):
        # khat(2) = 1e300 times a0^2 = 1e10 leaves the range in psi (phi:
        # tests/test_cli.py, through check and report)
        ws = WeightSequence([1.0, 1.0, 1e-150])
        with pytest.raises(DomainError, match="psi coefficient 2 is not finite"):
            synthesize_from_weights(ws, 1e5, 0.2, 1.0)


class TestTriviality:
    def test_cases(self):
        assert triviality(0.5, 0.1, 0.0) == ZERO_WEIGHT
        assert triviality(0.0, 0.1, 1.0) == FIXED_ORIGIN
        assert triviality(0.5, 0.0, 1.0) == RANK_ONE
        assert triviality(0.5, 0.1, 1.0) == NONTRIVIAL

    def test_zero_weight_wins(self):
        assert triviality(0.0, 0.0, 0.0) == ZERO_WEIGHT


class TestSelfMapInterval:
    def test_half_at_hardy(self):
        interval = selfmap_interval(0.5, 1.0, 1.0)
        assert abs(interval.a1_min + 0.75) < 1e-15
        assert abs(interval.a1_max - 0.25) < 1e-15

    def test_large_a0(self):
        interval = selfmap_interval(0.9, 1.0, 1.0)
        assert abs(interval.a1_max - 0.01) < 1e-15

    def test_inadmissible_when_a0_outside(self):
        interval = selfmap_interval(0.95, 1.0, 0.9)
        assert not interval.admissible
        assert not interval.contains(0.0)

    def test_origin_reduces_to_linear_map(self):
        interval = selfmap_interval(0.0, 0.5, 1.0)
        assert interval.admissible
        assert abs(interval.a1_min + 1.0) < 1e-15
        assert abs(interval.a1_max - 1.0) < 1e-15

    def test_preconditions(self):
        with pytest.raises(DomainError):
            selfmap_interval(0.5, -0.1, 1.0)  # lam < 0
        with pytest.raises(DomainError):
            selfmap_interval(0.5, 1.5, 1.0)  # lam > 1
        with pytest.raises(DomainError):
            selfmap_interval(0.5, 0.25, 3.0)  # rho > 1/sqrt(lam)
        with pytest.raises(DomainError):
            selfmap_interval(0.9, 1.0, 1.2)  # rho|a0|lam >= 1 (and rho > 1)

    def test_membership(self):
        interval = selfmap_interval(0.5, 1.0, 1.0)
        assert interval.contains(0.25)  # endpoint included
        assert not interval.contains(0.26)
        assert interval.contains(0.0)  # constant-map direction

    def test_opposite_sign_endpoints(self):
        rng = np.random.default_rng(53)
        for _ in range(100):
            lam = rng.uniform(0.05, 1.0)
            rho = rng.uniform(0.3, 1.0 / math.sqrt(lam))
            a0 = rng.uniform(1e-3, rho * 0.999) * np.exp(2j * np.pi * rng.uniform())
            if rho * abs(a0) * lam >= 0.999:
                continue
            interval = selfmap_interval(a0, lam, rho)
            assert interval.a1_min < 0.0 < interval.a1_max


class TestBoundaryOracle:
    def test_endpoints_touch_the_circle(self):
        rng = np.random.default_rng(59)
        for _ in range(50):
            lam = rng.uniform(0.05, 1.0)
            rho = rng.uniform(0.3, 1.0 / math.sqrt(lam))
            m = rng.uniform(0.05, 0.95) * rho
            if rho * m * lam >= 0.99:
                continue
            a0 = m * np.exp(2j * np.pi * rng.uniform())
            # lam = 0 is the affine phi of the exponential family
            for lam in (lam, 0.0):
                interval = selfmap_interval(a0, lam, rho)
                for a1 in (interval.a1_min, interval.a1_max):
                    top = mobius_circle_max(a0, a1, lam, rho)
                    assert abs(top - rho) <= 1e-8 * rho
                    outside = mobius_circle_max(a0, a1 * (1 + 1e-3), lam, rho)
                    assert outside > rho * (1 + 1e-12)

    def test_fraction_mapping(self):
        interval = selfmap_interval(0.5, 1.0, 1.0)
        assert a1_from_fraction(interval, 1.0) == interval.a1_max
        assert a1_from_fraction(interval, -1.0) == interval.a1_min
        assert a1_from_fraction(interval, 0.0) == 0.0
        assert a1_from_fraction(interval, 0.5) == 0.5 * interval.a1_max


class TestSelfMapExcess:
    """The closed-form sup |phi| - 1 against phi evaluated on the circle."""

    @staticmethod
    def draw(rng, m_max=0.95):
        lam = rng.choice([0.0, 1.0, rng.uniform(0.0, 1.0)])
        return lam, rng.uniform(0.0, m_max) * np.exp(2j * np.pi * rng.uniform())

    def test_real_a1_against_the_circle_maximum(self):
        rng = np.random.default_rng(61)
        for _ in range(200):
            lam, a0 = self.draw(rng)
            a1 = rng.uniform(-1.5, 1.5)
            excess = selfmap_excess(a0, a1, lam * np.conj(a0))
            assert abs(excess - (mobius_circle_max(a0, a1, lam) - 1.0)) <= 1e-13

    def test_complex_a1_against_a_dense_circle(self):
        # the excess is never below the maximum over 2^18 points, and the
        # grid's step leaves it at most 1e-8 below the excess
        rng = np.random.default_rng(67)
        z = np.exp(2j * np.pi * np.arange(2**18) / 2**18)
        for _ in range(50):
            lam, a0 = self.draw(rng)
            a1 = rng.uniform(0.0, 1.2) * np.exp(2j * np.pi * rng.uniform())
            q = lam * np.conj(a0)
            on_circle = float(np.max(np.abs(a0 + a1 * z / (1.0 - q * z)))) - 1.0
            assert 0.0 <= selfmap_excess(a0, a1, q) - on_circle + 1e-15 <= 1e-8

    def test_zero_at_the_interval_endpoints(self):
        rng = np.random.default_rng(73)
        for _ in range(300):
            lam, a0 = self.draw(rng, m_max=0.99)
            interval = selfmap_interval(a0, lam)
            for a1 in (interval.a1_min, interval.a1_max):
                assert abs(selfmap_excess(a0, a1, lam * np.conj(a0))) <= 1e-14
                assert selfmap_excess(a0, a1 * (1 + 1e-6), lam * np.conj(a0)) > 1e-12

    def test_pole_in_the_closed_disk_is_a_domain_error(self):
        with pytest.raises(DomainError, match=r"rho\*\|a0\|\*lam must be < 1"):
            selfmap_excess(1.2, 0.1, 1.2)


class TestSqrtLambdaLift:
    """A unit-disk self-map of this shape also maps the disk of radius
    1/sqrt(lam) into itself: a1 lies in both intervals, the ones that
    `wco region A0 LAM` and `wco region A0 LAM 1/sqrt(LAM)` print."""

    @pytest.mark.parametrize(
        "a0, a1, lam",
        [(0.5, 0.2, 0.64), (0.5, (1 - 0.5) * (1 - 0.5 * 0.64), 0.64), (0.3, 0.1, 1.0)],
        ids=["explicit-case", "unit-disk-right-endpoint", "lambda-one"],
    )
    def test_lifts(self, a0, a1, lam):
        assert selfmap_interval(a0, lam, 1.0).contains(a1)
        assert selfmap_interval(a0, lam, 1.0 / math.sqrt(lam)).contains(a1)

    def test_random_admissible(self):
        rng = np.random.default_rng(61)
        for _ in range(2000):
            lam = rng.uniform(0.05, 1.0)
            a0 = rng.uniform(0.0, 0.999) * np.exp(2j * np.pi * rng.uniform())
            interval = selfmap_interval(a0, lam, 1.0)
            a1 = a1_from_fraction(interval, rng.uniform(-1.0, 1.0))
            assert interval.contains(a1)
            assert selfmap_interval(a0, lam, 1.0 / math.sqrt(lam)).contains(a1)


class TestDilate:
    """A binomial pair is the lam = 1 pair at sqrt(lam) a0 seen through the
    dilation z -> sqrt(lam) z: psi(z) = psi_1(sqrt(lam) z) and
    phi(z) = phi_1(sqrt(lam) z) / sqrt(lam), coefficient j scaled by
    lam^(j/2) and lam^((j - 1)/2)."""

    @staticmethod
    def normal_form(sp):
        return synthesize(
            Binomial(lam=1.0, eta=sp.cls.eta), math.sqrt(sp.cls.lam) * sp.a0, sp.a1, sp.c, sp.order
        )

    def test_lambda_one_is_identity(self):
        sp = synthesize(HARDY, 0.5, 0.1, 1.0, 16)
        out = self.normal_form(sp)
        assert out.a0 == sp.a0 and out.a1 == sp.a1 and out.c == sp.c
        assert np.array_equal(out.psi.coeffs, sp.psi.coeffs)
        assert np.array_equal(out.phi.coeffs, sp.phi.coeffs)

    def test_quarter_lambda(self):
        cls = Binomial(lam=0.25, eta=2.0, gamma=1.5)
        sp = synthesize(cls, 0.4, 0.05, 1.0, 16)
        out = self.normal_form(sp)
        assert abs(out.a0 - 0.2) < 1e-15
        # phi~(z) = 0.2 + a1 z / (1 - 0.2 z)
        z = 0.5
        want = 0.2 + 0.05 * z / (1 - 0.2 * z)
        assert abs(out.phi(z) - want) < 1e-12
        assert abs(sp.phi(z) - out.phi(0.5 * z) / 0.5) < 1e-15
        assert sp.phi_pole == pytest.approx(0.5 * out.phi_pole, abs=1e-16)
        scale = 0.5 ** np.arange(17)  # sqrt(lam)^j
        assert np.allclose(sp.psi.coeffs, out.psi.coeffs * scale, rtol=1e-14, atol=0.0)
        assert np.allclose(
            sp.phi.coeffs[1:], out.phi.coeffs[1:] * scale[:-1], rtol=1e-14, atol=0.0
        )


def test_conjugate_convention_nonreal_a0():
    # psi must use conj(a0): its first coefficient after c is c*eta*lam*conj(a0)
    cls = Binomial(lam=0.8, eta=1.5, gamma=2.5 / 1.5)
    a0 = 0.3 + 0.4j
    sp = synthesize(cls, a0, 0.05, 2.0, 8)
    assert abs(sp.psi.coeffs[1] - 2.0 * cls.lam * cls.eta * np.conj(a0)) < 1e-14
    # and phi's tail ratio is lam * conj(a0)
    ratio = sp.phi.coeffs[3] / sp.phi.coeffs[2]
    assert abs(ratio - cls.lam * np.conj(a0)) < 1e-14
