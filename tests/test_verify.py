"""Cross-oracle checks: ODE residual, norm equivalence, reports."""

import math

import numpy as np
import pytest

from wco import operators, series
from wco.series import TruncatedSeries, binomial_series, exp_series, monomial, polynomial
from wco.spaces import (
    Binomial,
    Exponential,
    bergman_weights,
    dirichlet_weights,
    family_weights,
    flat_weights,
    fock_weights,
    hardy_weights,
)
from wco.symbols import synthesize_from_weights
from wco.verify import (
    NORM_BOUND_SLACK,
    NormEquivalence,
    ODE_SAMPLES,
    _ode_series_order,
    full_report,
    norm_equivalence_check,
    ode_residual,
)

HARDY = Binomial(lam=1.0, eta=1.0, gamma=2.0)


class TestOdeResidual:
    def test_exponential_family_solves(self):
        for b in (0.5, 1.0, 2.0):
            k = exp_series(1.0 / b**2, 130)
            beta2 = math.sqrt(2.0) * b * b
            assert ode_residual(k, b, beta2) <= 1e-12

    def test_binomial_family_solves(self):
        for lam, b1 in ((1.0, 1.0), (0.5, 0.8), (0.25, 1.3)):
            eta = 1.0 / (lam * b1 * b1)
            k = binomial_series(lam, eta, 130)
            beta2 = math.sqrt(1.0 / k.coeffs[2].real)
            assert ode_residual(k, b1, beta2) <= 1e-12

    def test_dirichlet_violates(self):
        k = TruncatedSeries((1.0 / (np.arange(131) + 1.0)).astype(complex))
        assert ode_residual(k, math.sqrt(2.0), math.sqrt(3.0)) > 1e-2

    @pytest.mark.parametrize(
        "cls",
        [Binomial(1.0, eta) for eta in (0.5, 1.0, 2.0, 30.0, 60.0, 100.0)]
        + [Binomial(0.5, 1.7), Exponential(b_sq=0.01), Exponential(b_sq=1.0)],
        ids=lambda cls: repr(cls),
    )
    def test_family_series_order_converges_at_half_radius(self, cls):
        order = _ode_series_order(cls)
        terms = np.abs(cls.generating_series(2 * order).coeffs) * 0.5 ** np.arange(2 * order + 1)
        j = np.arange(2 * order + 1)
        tail = np.sum((j * j * terms)[order - 1 :])  # k'' terms, up to 0.5^-2
        assert tail <= 1e-17 * np.sum(terms)
        # relative residual at the rounding level, although k(0.5) reaches 2^100
        k = cls.generating_series(order)
        beta = family_weights(cls, 2).beta
        assert ode_residual(k, float(beta[1]), float(beta[2])) <= 1e-15

    def test_initial_conditions_enforced(self):
        k = binomial_series(1.0, 1.0, 16)
        with pytest.raises(ValueError):
            ode_residual(k, 2.0, 1.0)  # k'(0) != 1/beta1^2

    def test_default_samples_inside_half_disk(self):
        assert ODE_SAMPLES.size == 36
        assert np.max(np.abs(ODE_SAMPLES)) <= 0.5 + 1e-15


class TestNormEquivalence:
    def test_constant(self):
        out = norm_equivalence_check(monomial(0, 4))
        assert out.hardy == 1.0 and out.flat == 1.0 and out.ratio_ok

    def test_single_z_hits_upper_constant(self):
        out = norm_equivalence_check(monomial(1, 4))
        assert out.ratio_ok
        assert out.flat / out.hardy >= 2.0 - 1e-6

    def test_random_polynomials(self):
        rng = np.random.default_rng(73)
        for _ in range(200):
            deg = int(rng.integers(0, 21))
            coeffs = rng.standard_normal(deg + 1) + 1j * rng.standard_normal(deg + 1)
            out = norm_equivalence_check(TruncatedSeries(coeffs))
            assert out.ratio_ok

    def test_violation_is_relative_to_the_hardy_norm(self):
        assert NormEquivalence(hardy=4.0, flat=9.0, level=2.0).violation == 0.25
        assert NormEquivalence(hardy=0.5, flat=0.25, level=2.0).violation == 0.25
        assert not NormEquivalence(hardy=1.0, flat=1.0 - 1e-9, level=2.0).ratio_ok


class TestFullReport:
    @pytest.mark.parametrize(
        "cls, chains",
        [(Binomial(lam=0.6, eta=1.5), 2), (Binomial(lam=1.0, eta=2.0), 1)],
        ids=["lam-below-1", "lam-1"],
    )
    def test_one_power_chain_per_section(self, monkeypatch, cls, chains):
        """The report's section serves the kernel identity and the dilation
        check; only the dilated pair needs a chain of its own."""
        calls = {"build_matrix": 0, "compose_poly": 0}

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)

            return wrapper

        monkeypatch.setattr(
            operators, "build_matrix", counted("build_matrix", operators.build_matrix)
        )
        compose = counted("compose_poly", series.compose_poly)
        monkeypatch.setattr(series, "compose_poly", compose)
        monkeypatch.setattr(operators, "compose_poly", compose)
        report = full_report(family_weights(cls, 48), 0.5 * np.exp(0.4j), 0.1, 1.0)
        assert report.passed, report.to_json()
        assert calls == {"build_matrix": chains, "compose_poly": 0}

    def test_hardy_pair_passes_everything(self):
        report = full_report(hardy_weights(64), 0.5, 0.1, 1.0)
        assert report.passed, report.to_json()
        names = {c.name for c in report.checks}
        assert {"hospitable-classification", "selfmap", "hermitian-deviation",
                "moment-0", "moment-1", "moment-2", "generating-ode",
                "kernel-identity", "quadrature-vs-series-norm"} <= names

    @pytest.mark.parametrize("eta", [60.0, 100.0])
    def test_generating_ode_passes_for_large_eta(self, eta):
        checks = {c.name: c for c in full_report(bergman_weights(eta, 64), 0.3, 0.2, 1.0).checks}
        assert checks["generating-ode"].passed, checks["generating-ode"].residual
        assert checks["hermitian-deviation"].passed
        # kernel-identity is not asserted: at order 64 it still sees the
        # truncation of K_w (eta = 100: residual ~2e-6 against 1e-8)

    @pytest.mark.parametrize("weights", [dirichlet_weights, flat_weights], ids=["dirichlet", "flat"])
    def test_generating_ode_fails_off_the_families(self, weights):
        checks = {c.name: c for c in full_report(weights(64), 0.3, 0.2, 1.0).checks}
        assert not checks["generating-ode"].passed
        assert checks["generating-ode"].residual > 1e-2

    def test_nonreal_c_fails_moment_zero(self):
        report = full_report(hardy_weights(64), 0.5, 0.1, 1.0 + 0.2j)
        assert not report.passed
        failing = {c.name for c in report.checks if not c.passed}
        assert "moment-0" in failing

    def test_fock_pair_passes_with_bound(self):
        report = full_report(fock_weights(1.0, 64), 0.3, 0.5, 2.0)
        assert report.passed, report.to_json()
        names = {c.name for c in report.checks}
        assert "norm-bound-dominance" in names

    def test_flat_space_fails_matrix_and_ode(self):
        report = full_report(flat_weights(64), 0.5, 0.1, 1.0)
        assert not report.passed
        by_name = {c.name: c for c in report.checks}
        assert not by_name["hospitable-classification"].passed
        assert not by_name["hermitian-deviation"].passed
        assert not by_name["generating-ode"].passed
        # the flat space is still norm-equivalent to Hardy, measured on the probe
        equivalence = by_name["hardy-norm-equivalence"]
        assert equivalence.passed and equivalence.tolerance == NORM_BOUND_SLACK
        assert 0.0 <= equivalence.residual <= NORM_BOUND_SLACK

    def test_dirichlet_oracles_agree_in_rejecting(self):
        report = full_report(dirichlet_weights(64), 0.6, 0.3, 1.0)
        by_name = {c.name: c for c in report.checks}
        assert not by_name["hospitable-classification"].passed
        assert not by_name["generating-ode"].passed
        assert not by_name["moment-2"].passed
        # the first two moment conditions hold for any generating function
        assert by_name["moment-0"].passed
        assert by_name["moment-1"].passed

    def test_small_eta_uses_derivative_sandwich(self):
        report = full_report(bergman_weights(0.5, 64), 0.4, 0.1, 1.0)
        assert report.passed, report.to_json()
        names = {c.name for c in report.checks}
        assert "derivative-norm-sandwich" in names

    def test_dilation_check_for_small_lambda(self):
        ws = family_weights(Binomial(0.5, 2.0, 1.5), 64)
        report = full_report(ws, 0.4, 0.1, 1.0)
        assert report.passed, report.to_json()
        assert "dilation-conjugation" in {c.name for c in report.checks}

    def test_oracle_verdicts_agree(self):
        # matrix, kernel, and symbol-side oracles must give one verdict
        configs = [
            (hardy_weights(64), 0.5, 0.1, 1.0, True),
            (fock_weights(1.0, 64), 0.3, 0.5, 2.0, True),
            (flat_weights(64), 0.5, 0.1, 1.0, False),
            (dirichlet_weights(64), 0.6, 0.3, 1.0, False),
        ]
        for ws, a0, a1, c, expect in configs:
            report = full_report(ws, a0, a1, c)
            by_name = {c_.name: c_ for c_ in report.checks}
            matrix_ok = by_name["hermitian-deviation"].passed
            kernel_ok = by_name["kernel-identity"].passed
            ode_ok = by_name["generating-ode"].passed
            assert matrix_ok == expect
            assert kernel_ok == expect
            assert ode_ok == expect

    def test_report_lines_and_json(self):
        report = full_report(hardy_weights(32), 0.5, 0.1, 1.0, order=32)
        lines = report.lines()
        assert lines[-1] == "overall: PASS"
        assert all(line.startswith("[PASS]") for line in lines[:-1])
        payload = report.to_dict()
        assert payload["schema"] == "wco-report/1"
        assert payload["pass"] is True

    def test_endpoint_parameters_flagged(self):
        # a1 exactly at the self-map endpoint gets a note in the report
        from wco.symbols import selfmap_interval

        interval = selfmap_interval(0.5, 1.0, 1.0)
        report = full_report(hardy_weights(48), 0.5, interval.a1_max, 1.0, order=48)
        selfmap = next(c for c in report.checks if c.name == "selfmap")
        assert "endpoint" in selfmap.notes


def test_rejection_gallery_grid():
    """Every nontrivial parameter cell over the rejected spaces trips at
    least one of the third-moment or ODE oracles."""
    galleries = {
        "dirichlet": dirichlet_weights(32),
        "flat": flat_weights(32),
    }
    for name, ws in galleries.items():
        k = TruncatedSeries(
            (1.0 / ws.beta**2).astype(complex)
        )
        ode = ode_residual(k, float(ws.beta[1]), float(ws.beta[2]))
        for a0_mod in (0.1, 0.3, 0.5, 0.7, 0.85):
            for a0_arg in (0.0, 1.2, 2.4, 3.6, 4.8):
                for a1 in (0.05, 0.2, 0.4):
                    a0 = a0_mod * np.exp(1j * a0_arg)
                    sp = synthesize_from_weights(ws, a0, a1, 1.0)
                    m2 = operators.hermitian_deviation(operators.build_matrix(sp, ws))[2][2]
                    assert max(m2, ode) > 1e-3, (name, a0, a1)
