"""Cross-oracle checks: ODE residual, norm equivalence, reports."""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from wco import operators, series, spaces
from wco.series import TruncatedSeries, binomial_series, exp_series, monomial, polynomial
from wco.spaces import (
    Binomial,
    Exponential,
    NotHospitable,
    bergman_weights,
    dirichlet_weights,
    family_weights,
    flat_weights,
    fock_weights,
    hardy_weights,
)
from wco.symbols import NONTRIVIAL, SymbolPair, synthesize_from_weights
from wco.verify import (
    NORM_BOUND_SLACK,
    NormEquivalence,
    _probe_polynomial,
    _selfmap_check,
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
        "cls, order",
        [
            pytest.param(cls, order, id=f"{cls!r}-{order}")
            for order in (64, 512)
            for cls in [Binomial(1.0, eta) for eta in (0.5, 1.0, 2.0, 30.0, 60.0, 100.0, 500.0)]
            + [Binomial(0.5, 1.7), Exponential(b_sq=0.01), Exponential(b_sq=1.0)]
            # 1/j! is subnormal from j = 171, so Fock b = 1 builds at 64 only
            if order == 64 or cls != Exponential(b_sq=1.0)
        ],
    )
    def test_family_residual_at_rounding_level(self, cls, order):
        # relative, so it does not tighten as khat(j) grows (khat(512) = 2^1005
        # at eta = 500, whose products leave the double range unscaled)
        k = cls.generating_series(order)
        beta = family_weights(cls, order).beta
        bound = 1e-15 if order == 64 else 1e-14
        assert ode_residual(k, float(beta[1]), float(beta[2])) <= bound

    @pytest.mark.parametrize(
        "cls",
        [Binomial(1.0, 500.0), Exponential(b_sq=0.035**2), Binomial(1.0, 1200.0),
         Exponential(b_sq=0.01**2)],
    )
    def test_family_residual_where_khat_overflows(self, cls):
        # by order 1000 khat(j) itself leaves the double range: refused
        with np.errstate(over="ignore", invalid="ignore"):
            k = cls.generating_series(1000)
        assert not np.all(np.isfinite(k.coeffs))
        with pytest.raises(ValueError, match="double range"):
            ode_residual(k, 1.0 / math.sqrt(k.coeffs[1].real), 1.0)
        # at order 64 the report's check passes, where the products of the
        # unscaled khat(j) overflow at b = 0.01
        report = full_report(family_weights(cls, 64), 0.3, 0.2, 1.0)
        ode = next(c for c in report.checks if c.name == "generating-ode")
        assert ode.passed and ode.residual <= 1e-14
        assert ode.notes.startswith("peak at coefficient m = ")

    @pytest.mark.parametrize(
        "cls, order",
        [(Exponential(b_sq=0.05**2), 1350), (Binomial(1.0, 140.0), 1500)],
        ids=["fock-b-0.05", "bergman-eta-140"],
    )
    def test_family_residual_where_khat_peaks_or_bends(self, cls, order):
        # Fock khat(j) = 400^j / j! peaks at 10^172 (j = 400) and falls to
        # 2^-422; eta = 140 bends from slope 7 to 1/2 (in bits per index):
        # a scale read off the last coefficient alone leaves products beyond
        # the double range on both
        k = cls.generating_series(order)
        beta = family_weights(cls, order).beta
        assert ode_residual(k, float(beta[1]), float(beta[2])) <= 1e-15

    def test_report_passes_where_khat_peaks(self):
        report = full_report(family_weights(Exponential(b_sq=0.05**2), 1000), 0.3, 0.2, 1.0)
        ode = next(c for c in report.checks if c.name == "generating-ode")
        assert ode.passed and ode.residual <= 1e-14

    @pytest.mark.parametrize(
        "eta, order", [(100.0, 2500), (140.0, 2300)], ids=["overflow", "underflow"]
    )
    def test_coefficients_beyond_one_scale_are_refused(self, eta, order):
        # here no single 2^(-e j) keeps the leading products of every
        # coefficient normal: some overflow, or all of one coefficient's
        # products fall below the normal range; refused, not read as exact
        cls = Binomial(1.0, eta)
        k, beta = cls.generating_series(order), family_weights(cls, 2).beta
        with pytest.raises(ValueError, match="double range"):
            ode_residual(k, float(beta[1]), float(beta[2]))

    def test_scaled_evaluation_is_bitwise_the_direct_one(self):
        # the residual from the unscaled coefficients, in range on these
        # series, which `ode_residual` scales by 2^(-e j) with e = 0, 5, -5
        for k in (binomial_series(0.6, 2.5, 90), exp_series(400.0, 64), exp_series(0.25, 40)):
            c, n = k.coeffs, k.order
            beta1, beta2 = 1.0 / math.sqrt(c[1].real), 1.0 / math.sqrt(c[2].real)
            d1 = k.derivative()
            f, f1, f2 = (s.coeffs[: n - 1] for s in (k, d1, d1.derivative()))
            lhs = beta1**4 * np.convolve(f1, f1)[: n - 1]
            rhs = 0.5 * beta2**2 * np.convolve(f, f2)[: n - 1]
            lhs_mod = beta1**4 * np.convolve(abs(f1), abs(f1))[: n - 1]
            rhs_mod = 0.5 * beta2**2 * np.convolve(abs(f), abs(f2))[: n - 1]
            direct = np.abs(lhs - rhs) / (lhs_mod + rhs_mod)
            residual = ode_residual(k, beta1, beta2)
            assert residual == float(np.max(direct))
            assert residual.coefficient == int(np.argmax(direct))

    def test_initial_conditions_enforced(self):
        k = binomial_series(1.0, 1.0, 16)
        with pytest.raises(ValueError):
            ode_residual(k, 2.0, 1.0)  # k'(0) != 1/beta1^2

    @pytest.mark.parametrize("order", [0, 1, 2])
    def test_orders_below_three_are_refused(self, order):
        # only the m = 0 coefficient would be left, which every weight
        # sequence satisfies
        k = TruncatedSeries(dirichlet_weights(order).generating_coefficients())
        with pytest.raises(ValueError, match="order >= 3"):
            ode_residual(k, math.sqrt(2.0), math.sqrt(3.0))

    @settings(max_examples=60, deadline=None)
    @given(
        family=st.sampled_from(["binomial", "exponential"]),
        log_eta=st.floats(math.log(0.5), math.log(1000.0)),
        lam=st.floats(0.0, 1.0, exclude_min=True),
        log_b=st.floats(math.log(1e-3), math.log(1e3)),
        order=st.sampled_from([3, 16, 64]),
    )
    def test_every_family_that_builds_solves(self, family, log_eta, lam, log_b, order):
        if family == "binomial":
            cls = Binomial(lam=lam, eta=math.exp(log_eta))
        else:
            cls = Exponential(b_sq=math.exp(2.0 * log_b))
        with np.errstate(over="ignore", invalid="ignore"):
            try:
                beta = family_weights(cls, order).beta
            except ValueError:
                assume(False)
        k = cls.generating_series(order)
        assert ode_residual(k, float(beta[1]), float(beta[2])) <= 1e-14

    @pytest.mark.parametrize("index", [3, 9, 40])
    @pytest.mark.parametrize(
        "cls",
        [Binomial(1.0, 1.0), Binomial(0.5, 1.3), Exponential(b_sq=1.0)],
        ids=["hardy", "binomial", "fock"],
    )
    def test_single_perturbed_weight_fails_the_ode(self, cls, index):
        beta = family_weights(cls, 64).beta.copy()
        beta[index] *= 1.0 + 1e-8
        ws = spaces.WeightSequence(beta)
        assert isinstance(spaces.classify_weights(ws), NotHospitable)
        report = full_report(ws, 0.3, 0.2, 1.0)
        ode = next(c for c in report.checks if c.name == "generating-ode")
        assert not ode.passed and ode.residual > 1e-12


class TestNormEquivalence:
    def test_constant(self):
        out = norm_equivalence_check(monomial(0, 4))
        assert out.hardy == 1.0 and out.flat == 1.0 and out.violation <= NORM_BOUND_SLACK

    def test_single_z_hits_upper_constant(self):
        out = norm_equivalence_check(monomial(1, 4))
        assert out.violation <= NORM_BOUND_SLACK
        assert out.flat / out.hardy >= 2.0 - 1e-6

    def test_random_polynomials(self):
        rng = np.random.default_rng(73)
        for _ in range(200):
            deg = int(rng.integers(0, 21))
            coeffs = rng.standard_normal(deg + 1) + 1j * rng.standard_normal(deg + 1)
            out = norm_equivalence_check(TruncatedSeries(coeffs))
            assert out.violation <= NORM_BOUND_SLACK

    def test_violation_is_relative_to_the_hardy_norm(self):
        assert NormEquivalence(hardy=4.0, flat=9.0, level=2.0).violation == 0.25
        assert NormEquivalence(hardy=0.5, flat=0.25, level=2.0).violation == 0.25
        assert NormEquivalence(hardy=1.0, flat=1.0 - 1e-9, level=2.0).violation > NORM_BOUND_SLACK


class TestFullReport:
    @pytest.mark.parametrize(
        "cls, pairs",
        [(Binomial(lam=0.6, eta=1.5), 1), (Binomial(lam=1.0, eta=2.0), 1)],
        ids=["lam-below-1", "lam-1"],
    )
    def test_one_power_chain_per_section(self, monkeypatch, cls, pairs):
        """The report fills its section in one pass of one pair, which serves
        the kernel identity too, below lam = 1 as at lam = 1."""
        calls = {"fills": [], "compose_poly": 0}
        fill = operators._anti_diagonals

        def counted_fill(sps, betas, n):
            calls["fills"].append(len(sps))
            return fill(sps, betas, n)

        def counted_compose(*args, _compose=series.compose_poly, **kwargs):
            calls["compose_poly"] += 1
            return _compose(*args, **kwargs)

        monkeypatch.setattr(operators, "_anti_diagonals", counted_fill)
        monkeypatch.setattr(series, "compose_poly", counted_compose)
        monkeypatch.setattr(operators, "compose_poly", counted_compose)
        report = full_report(family_weights(cls, 48), 0.5 * np.exp(0.4j), 0.1, 1.0)
        assert report.passed, report.to_json()
        assert calls == {"fills": [pairs], "compose_poly": 0}

    @pytest.mark.parametrize(
        "cls, series_built",
        [
            (Binomial(lam=1.0, eta=2.0), 1),
            (Exponential(b_sq=1.0), 1),
            (Binomial(lam=0.6, eta=1.5), 1),
        ],
        ids=["lam-1", "fock", "lam-below-1"],
    )
    def test_no_family_series_to_classify_or_for_the_ode(self, monkeypatch, cls, series_built):
        """The classifier holds the weights' own ratios to the family's and the
        ODE reads the weights' own 1/beta^2: a family series is built only for
        psi."""
        ws = family_weights(cls, 48)
        calls = []
        for family in (Binomial, Exponential):
            def counted(self, order, scale=1.0, _built=family.generating_series):
                calls.append(type(self).__name__)
                return _built(self, order, scale)

            monkeypatch.setattr(family, "generating_series", counted)
        report = full_report(ws, 0.5 * np.exp(0.4j), 0.1, 1.0)
        assert report.passed, report.to_json()
        assert len(calls) == series_built

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

    def test_broken_sandwich_fails_its_check(self, monkeypatch):
        """A sandwich violation is the report's verdict, not an exception."""
        ws = bergman_weights(0.5, 32)
        exact = spaces.binomial_series

        def skewed(a, eta, order):
            # the eta + 2 space shrinks a hundredfold: ||f'||^2 leaves the sandwich
            k = exact(a, eta, order)
            return TruncatedSeries(0.01 * k.coeffs) if eta > 2.0 else k

        monkeypatch.setattr(spaces, "binomial_series", skewed)
        report = full_report(ws, 0.4, 0.1, 1.0)
        sandwich = next(c for c in report.checks if c.name == "derivative-norm-sandwich")
        assert not sandwich.passed and sandwich.residual > 1.0
        assert [c.name for c in report.checks if not c.passed] == ["derivative-norm-sandwich"]

    def test_dilation_check_for_small_lambda(self):
        """Below lam = 1 the space is checked by the dilated integral norm,
        the disk rule at radius 1/sqrt(lam)."""
        ws = family_weights(Binomial(0.5, 2.0, 1.5), 64)
        report = full_report(ws, 0.4, 0.1, 1.0)
        assert report.passed, report.to_json()
        quad = next(c for c in report.checks if c.name == "quadrature-vs-series-norm")
        assert quad.oracle == "disk quadrature" and quad.residual <= 1e-14

    @pytest.mark.parametrize("lam, eta", [(0.5, 0.5), (0.05, 0.3), (0.9, 0.9)])
    def test_small_lambda_and_eta_sandwich_the_rescaled_probe(self, lam, eta):
        """Below lam = 1 and eta = 1 the sandwich runs in the lam = 1 space on
        the probe's dilate g(z) = f(z / sqrt(lam)): its T, the norm of g less
        |g(0)|^2 there, is the norm of f over (lam, eta) less |f(0)|^2."""
        ws = family_weights(Binomial(lam, eta), 64)
        report = full_report(ws, 0.4, 0.1, 1.0)
        assert report.passed, report.to_json()
        sandwich = next(c for c in report.checks if c.name == "derivative-norm-sandwich")
        assert "rescaled probe f(z / sqrt(lam))" in sandwich.notes
        bounds = spaces.derivative_norm_bounds(_probe_polynomial(64, lam), eta)
        tail = spaces.norm(_probe_polynomial(64), ws) ** 2 - 1.0
        assert bounds.upper / (eta + 1.0) == pytest.approx(tail, rel=1e-14)

    def test_small_lambda_pair_with_imaginary_c_fails_only_the_section(self):
        """c = i breaks the pair, not the space: the section sees it and the
        dilated integral norm still passes."""
        ws = family_weights(Binomial(0.5, 3.0), 64)
        checks = {c.name: c for c in full_report(ws, 0.4, 0.1, 1j).checks}
        assert not checks["hermitian-deviation"].passed
        assert checks["quadrature-vs-series-norm"].passed

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
        report = full_report(hardy_weights(32), 0.5, 0.1, 1.0)
        lines = report.lines()
        assert lines[-1] == "overall: PASS"
        assert all(line.startswith("[PASS]") for line in lines[:-1])
        payload = report.to_dict()
        assert payload["schema"] == "wco-report/1"
        assert payload["pass"] is True

    def test_endpoint_parameters_flagged(self):
        # a1 exactly at the self-map endpoint gets a note in the report; the
        # Fock space is lam = 0 of the same interval
        from wco.symbols import selfmap_interval

        for ws, lam in ((hardy_weights(48), 1.0), (fock_weights(1.0, 48), 0.0)):
            interval = selfmap_interval(0.5, lam, 1.0)
            report = full_report(ws, 0.5, interval.a1_max, 1.0)
            selfmap = next(c for c in report.checks if c.name == "selfmap")
            assert selfmap.passed and selfmap.oracle == "exact image circle"
            assert "endpoint" in selfmap.notes


@pytest.mark.parametrize("bad", [math.nan, math.inf, 1e308])
def test_selfmap_fails_where_the_boundary_grid_leaves_the_double_range(bad):
    # max(0.0, nan - 1.0) is 0.0, so a grid maximum that is not finite must
    # fail on its own, with a null residual; a coefficient that is not
    # finite is refused before, by SymbolPair
    phi = TruncatedSeries([0.3, 0.2, bad, bad])
    cls = spaces.classify_weights(dirichlet_weights(3))
    pair = dict(a0=0.3, a1=0.2, c=1.0, cls=cls, psi=phi, phi=phi, trivial=NONTRIVIAL)
    if not math.isfinite(bad):
        with pytest.raises(spaces.DomainError, match="psi coefficient 2 is not finite"):
            SymbolPair(**pair)
        return
    check = _selfmap_check(SymbolPair(**pair))
    assert not check.passed and check.to_dict()["residual"] is None


def fock_with_beta60_off() -> spaces.WeightSequence:
    """Fock b = 1 weights at order 64 with beta(60) raised by a relative 1e-8:
    the generating coefficient 60 (about 1e-82) is off by 2e-8 relative."""
    beta = fock_weights(1.0, 64).beta.copy()
    beta[60] *= 1.0 + 1e-8
    return spaces.WeightSequence(beta)


@pytest.mark.parametrize(
    "ws, reason",
    [
        (hardy_weights(32), None),
        (fock_weights(1.0, 32), None),
        (bergman_weights(0.5, 32), None),
        # beta(2)^2 = 4 > 2 beta(1)^4: gamma = 1/2, lambda = -1/2
        (spaces.WeightSequence(np.r_[1.0, 1.0, np.full(31, 2.0)]), "lambda-negative"),
        (flat_weights(32), "lambda-exceeds-one"),
        (dirichlet_weights(32), "coefficient-mismatch"),
        (fock_with_beta60_off(), "coefficient-mismatch"),
    ],
    ids=["hardy", "fock", "bergman-0.5", "lambda-negative", "lambda-exceeds-one",
         "dirichlet", "fock-beta60-off"],
)
def test_classification_check_reads_the_classifier(ws, reason):
    cls = spaces.classify_weights(ws)
    assert getattr(cls, "reason", None) == reason
    report = full_report(ws, 0.3, 0.2, 1.0)
    check = next(c for c in report.checks if c.name == "hospitable-classification")
    assert check.passed == (not isinstance(cls, NotHospitable))
    if reason == "coefficient-mismatch":
        # the relative gap the fit decided with, against the fit's tolerance
        assert check.residual == cls.mismatch.gap > check.tolerance == spaces.FIT_TOL
        assert not report.passed
    else:
        assert check.tolerance == spaces.CLASSIFICATION_TOL


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
