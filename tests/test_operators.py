"""Finite-section matrices: assembly, Hermitian checks, bounds."""

import cmath
import dataclasses
import math
import sys

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wco import operators
from wco.series import TruncatedSeries, compose_poly, monomial
from wco.spaces import (
    Binomial,
    DomainError,
    Exponential,
    bergman_weights,
    dirichlet_weights,
    family_weights,
    flat_weights,
    fock_weights,
    hardy_weights,
    kernel,
)
from wco.symbols import (
    a1_from_fraction,
    selfmap_interval,
    synthesize,
    synthesize_from_weights,
)

HARDY = Binomial(lam=1.0, eta=1.0, gamma=2.0)


def hardy_pair(a0=0.5, a1=0.1, c=1.0, order=64):
    return synthesize(HARDY, a0, a1, c, order), hardy_weights(order)


def dilate(sp):
    """The lam = 1 pair at sqrt(lam) a0 that the dilation z -> sqrt(lam) z
    carries the binomial pair ``sp`` to: the two operators are unitarily
    equivalent, and their sections are one matrix in exact arithmetic."""
    target = Binomial(lam=1.0, eta=sp.cls.eta)
    return synthesize(target, math.sqrt(sp.cls.lam) * sp.a0, sp.a1, sp.c, sp.order)


def family_section(sp):
    """`build_matrix` of a family pair over its family weights."""
    return operators.build_matrix(sp, family_weights(sp.cls, sp.order))


class TestBuildMatrix:
    def test_fixed_origin_pair_is_diagonal(self):
        sp = synthesize(HARDY, 0.0, 0.5, 2.0, 16)
        m = operators.build_matrix(sp, hardy_weights(16))
        want = np.diag(2.0 * 0.5 ** np.arange(17))
        assert np.allclose(m, want, atol=1e-15)
        assert operators.hermitian_deviation(m)[0] == 0.0

    def test_rank_one_pair(self):
        sp = synthesize(HARDY, 0.4, 0.0, 1.5, 24)
        m = operators.build_matrix(sp, hardy_weights(24))
        singular = np.linalg.svd(m, compute_uv=False)
        assert singular[1] <= 1e-12 * singular[0]
        assert operators.hermitian_deviation(m)[0] <= 1e-14

    def test_hardy_pair_hermitian(self):
        sp, ws = hardy_pair()
        m = operators.build_matrix(sp, ws)
        assert operators.hermitian_deviation(m)[0] <= 1e-12
        # independent check on a few entries: <W e_j, e_i> via direct convolution
        for i, j in ((0, 0), (1, 3), (5, 2)):
            conv = np.convolve(sp.psi.coeffs, compose_poly(monomial(j, sp.order), sp.phi).coeffs)[i]
            assert abs(m[i, j] - conv * ws.beta[i] / ws.beta[j]) < 1e-14

    @pytest.mark.parametrize("general", [False, True], ids=["recurrence", "convolution"])
    def test_section_is_a_read_only_square_array(self, general):
        sp, ws = hardy_pair(order=8)
        if general:
            sp = dataclasses.replace(sp, phi_pole=None)
        m = operators.build_matrix(sp, ws)
        assert isinstance(m, np.ndarray) and m.dtype == complex and m.shape == (9, 9)
        assert not m.flags.writeable

    def test_entries_stable_across_truncation_order(self):
        sp64, ws64 = hardy_pair(order=64)
        sp128, ws128 = hardy_pair(order=128)
        m64 = operators.build_matrix(sp64, ws64)
        m128 = operators.build_matrix(sp128, ws128)
        assert np.array_equal(m64, m128[:65, :65])

    @pytest.mark.parametrize(
        "cls, weights",
        [
            (Binomial(lam=0.5, eta=1.7), lambda n: family_weights(Binomial(lam=0.5, eta=1.7), n)),
            (Exponential(b_sq=1.0), lambda n: fock_weights(1.0, n)),
        ],
        ids=["binomial-lam-0.5", "fock"],
    )
    def test_entries_stable_across_truncation_order_beyond_hardy(self, cls, weights):
        a0 = 0.45 * np.exp(0.7j)
        if isinstance(cls, Binomial):
            a1 = a1_from_fraction(selfmap_interval(a0, cls.lam, 1.0), 0.6)
        else:
            a1 = 0.4
        m64 = operators.build_matrix(synthesize(cls, a0, a1, -1.2, 64), weights(64))
        m128 = operators.build_matrix(synthesize(cls, a0, a1, -1.2, 128), weights(128))
        assert np.array_equal(m64, m128[:65, :65])

    @pytest.mark.parametrize("order", [17, 33])
    def test_entries_stable_across_orders_off_the_block(self, order):
        """N and 2N that are not multiples of ROW_BLOCK: blocks of
        anti-diagonals end at other places in the two fills."""
        cls = Binomial(lam=0.6, eta=2.2)
        a0 = 0.55 * np.exp(-1.3j)
        a1 = a1_from_fraction(selfmap_interval(a0, cls.lam, 1.0), 0.4)
        small, large = (
            operators.build_matrix(synthesize(cls, a0, a1, 0.7 + 0.2j, n), family_weights(cls, n))
            for n in (order, 2 * order)
        )
        assert small.tobytes() == np.ascontiguousarray(large[: order + 1, : order + 1]).tobytes()

    @pytest.mark.parametrize("order", [0, 1, 15, 16, 17, 33, 200])
    @pytest.mark.parametrize(
        "cls", [Binomial(lam=0.7, eta=1.4), Exponential(b_sq=0.02)], ids=["binomial", "fock"]
    )
    def test_block_store_matches_one_anti_diagonal_at_a_time(self, cls, order):
        sp = synthesize(cls, 0.45 * np.exp(2.4j), 0.2 - 0.03j, -1.1 + 0.4j, order)
        ws = family_weights(cls, order)
        want = stored_one_anti_diagonal_at_a_time(sp, ws)
        assert not np.isnan(want).any()
        assert operators.build_matrix(sp, ws).tobytes() == want.tobytes()

    def test_hermitian_across_families_and_lambdas(self):
        for lam in (0.1, 0.25, 0.5, 0.75, 1.0):
            cls = Binomial(lam=lam, eta=1.3, gamma=2.3 / 1.3)
            ws = family_weights(cls, 48)
            interval = selfmap_interval(0.5 * np.exp(0.9j), lam, 1.0)
            sp = synthesize(cls, 0.5 * np.exp(0.9j), a1_from_fraction(interval, 0.6), -0.8, 48)
            m = operators.build_matrix(sp, ws)
            assert operators.hermitian_deviation(m)[0] <= 1e-10
        spf = synthesize(Exponential(b_sq=2.25), 0.3 - 0.2j, 0.4, 1.1, 48)
        mf = operators.build_matrix(spf, fock_weights(1.5, 48))
        assert operators.hermitian_deviation(mf)[0] <= 1e-10

    def test_nonreal_c_breaks_hermitian(self):
        sp, ws = hardy_pair(c=1j)
        m = operators.build_matrix(sp, ws)
        assert operators.hermitian_deviation(m)[0] > 1e-3
        # the (0,0) entry alone shows the defect: |c - conj(c)| = 2
        assert abs(m[0, 0] - np.conj(m[0, 0])) == pytest.approx(2.0)
        deviation, argmax, _ = operators.hermitian_deviation(m)
        assert deviation == np.max(np.abs(m - m.conj().T)) and argmax == (0, 0)

    def test_flat_weights_never_hermitian(self):
        ws = flat_weights(64)
        sp = synthesize_from_weights(ws, 0.5, 0.1, 1.0)
        m = operators.build_matrix(sp, ws)
        assert operators.hermitian_deviation(m)[0] > 1e-3


def _mp_section(cls_khat, a0, a1, c, n):
    """50-digit section of the candidate shape psi = c k(conj(a0) z),
    phi = a0 + (a1 beta(1)^2 / conj(a0)) z k'(conj(a0) z) / k(conj(a0) z),
    built from the generating coefficients khat(j) alone: the series
    quotient and every column psi * phi^j are summed term by term with
    `mpmath.fsum`, sharing no code with either construction."""
    with mpmath.workdps(50):
        a0, a1, c = mpmath.mpc(a0), mpmath.mpc(a1), mpmath.mpc(c)
        khat = [cls_khat(j) for j in range(n + 1)]
        kappa = [khat[j] * mpmath.conj(a0) ** j for j in range(n + 1)]
        quotient = []  # z kappa' / kappa
        for i in range(n + 1):
            acc = mpmath.fsum(quotient[k] * kappa[i - k] for k in range(i))
            quotient.append((i * kappa[i] - acc) / kappa[0])
        scale = a1 / (khat[1] * mpmath.conj(a0))
        phi = [a0] + [scale * quotient[i] for i in range(1, n + 1)]
        columns = [[c * x for x in kappa]]
        for _ in range(n):
            prev = columns[-1]
            columns.append(
                [mpmath.fsum(prev[k] * phi[i - k] for k in range(i + 1)) for i in range(n + 1)]
            )
        beta = [1 / mpmath.sqrt(x) for x in khat]
        return np.array(
            [[complex(columns[j][i] * beta[i] / beta[j]) for j in range(n + 1)] for i in range(n + 1)]
        )


def _binomial_khat(lam, eta):
    return lambda j: mpmath.mpf(lam) ** j * mpmath.rf(eta, j) / mpmath.factorial(j)


class TestEntryError:
    """How far the "exact" entries are from the exact section."""

    CASES = {
        "hardy": (HARDY, _binomial_khat(1.0, 1.0)),
        "bergman-2": (Binomial(lam=1.0, eta=2.0), _binomial_khat(1.0, 2.0)),
        "binomial-lam-0.5": (Binomial(lam=0.5, eta=1.7), _binomial_khat(0.5, 1.7)),
        "fock": (Exponential(b_sq=1.0), lambda j: 1 / mpmath.factorial(j)),
        "dirichlet": (None, lambda j: 1 / mpmath.mpf(j + 1)),
    }

    def test_entries_against_50_digit_reference(self):
        n = 40
        a0, a1, c = 0.45 * np.exp(0.7j), 0.3, -1.2
        errors = {}
        for name, (cls, khat) in self.CASES.items():
            if cls is None:  # general shape: the convolution path
                ws = dirichlet_weights(n)
                sp = synthesize_from_weights(ws, a0, a1, c)
                assert sp.phi_pole is None
            else:
                ws = family_weights(cls, n)
                sp = synthesize(cls, a0, a1, c, n)
                assert sp.phi_pole is not None
            got = operators.build_matrix(sp, ws)
            errors[name] = float(np.max(np.abs(got - _mp_section(khat, a0, a1, c, n))))
        worst = max(errors, key=errors.get)
        print(f"max entry error at N = {n}: {errors} (worst: {worst})")
        assert errors[worst] <= 1e-13

    @pytest.mark.parametrize("lam_a0", [0.55, 0.05], ids=["normal", "subnormal-tails"])
    def test_recurrence_matches_convolution(self, lam_a0):
        n, lam = 256, 0.75
        cls = Binomial(lam=lam, eta=1.5)
        a0 = (lam_a0 / lam) * np.exp(2.1j)
        a1 = a1_from_fraction(selfmap_interval(a0, lam, 1.0), -0.7)
        sp = synthesize(cls, a0, a1, 0.9, n)
        ws = family_weights(cls, n)
        recurrence = operators.build_matrix(sp, ws)
        convolution = operators.build_matrix(dataclasses.replace(sp, phi_pole=None), ws)
        # unit weights leave the raw coefficients [z^i](psi phi^j)
        raw = operators.build_matrix(sp, hardy_weights(n)).view(float)
        subnormal = np.count_nonzero((raw != 0) & (np.abs(raw) < np.finfo(float).tiny))
        assert (subnormal > 0) == (lam_a0 < 0.1)
        scale = np.max(np.abs(convolution))
        assert np.max(np.abs(recurrence - convolution)) <= 1e-13 * scale


class TestMoments:
    def test_hermitian_pair_has_zero_moments(self):
        sp, ws = hardy_pair()
        _, _, moments = operators.hermitian_deviation(operators.build_matrix(sp, ws))
        assert max(moments) <= 1e-12

    def test_wrong_generating_function_fails_only_m2(self):
        from wco.spaces import dirichlet_weights

        ws = dirichlet_weights(64)
        sp = synthesize_from_weights(ws, 0.6, 0.3, 1.0)
        m0, m1, m2 = operators.hermitian_deviation(operators.build_matrix(sp, ws))[2]
        assert m0 <= 1e-10
        assert m1 <= 1e-10
        assert m2 > 1e-3

    def test_complex_a1_fails_m1(self):
        sp, ws = hardy_pair(a1=0.1 + 0.05j)
        _, m1, _ = operators.hermitian_deviation(operators.build_matrix(sp, ws))[2]
        assert m1 > 1e-3

    def test_moments_match_deviation_columns(self):
        sp, ws = hardy_pair(a1=0.1 + 0.05j)
        m = operators.build_matrix(sp, ws)
        _, _, moments = operators.hermitian_deviation(m)
        for j, value in enumerate(moments):
            direct = float(np.max(np.abs(m[:, j] - np.conj(m[j, :]))))
            assert value == direct


def dense_deviation(m):
    """hermitian_deviation as one pass over the whole |M - M*| table."""
    diff = np.abs(m - m.conj().T)
    i, j = divmod(int(np.argmax(diff)), diff.shape[1])
    return float(diff[i, j]), (i, j), tuple(float(x) for x in diff[:, :3].max(axis=0))


def walked_anti_diagonals(pairs, betas, order):
    """(s, rows, diagonal) for each anti-diagonal s that the walker's blocks
    hold, rows those of its entries (i, s - i) inside the section and
    diagonal its ring row: slot b (i + 1) + c holds pair c's M[i, s - i]."""
    count = 0
    for s0, block in operators._anti_diagonals(pairs, betas, order):
        assert s0 == count and 1 <= len(block) <= operators.ROW_BLOCK
        for s, diagonal in enumerate(block, s0):
            yield s, np.arange(max(0, s - order), min(s, order) + 1), diagonal
        count += len(block)
    assert count == 2 * order + 1


def stored_one_anti_diagonal_at_a_time(sp, ws):
    """The section that `build_matrix` fills from the walker, each
    anti-diagonal stored on its own by fancy indexing."""
    n = ws.order
    section = np.full((n + 1, n + 1), np.nan, dtype=complex)
    for s, rows, diagonal in walked_anti_diagonals([sp], [ws.beta], n):
        section[rows, s - rows] = diagonal[rows + 1]
    return section


class TestRowBlocks:
    """The O(N^2) checks keep row maxima of |M - M*| over the upper triangle,
    read ROW_BLOCK rows at a time, and the walker fills several pairs in one
    ring: each must give bitwise what a whole-table pass, or a fill of one
    pair, gives."""

    SPECIALS = [np.nan, complex(0.0, np.nan), 1e308, -1e308, 1e308j, -1e308j, 1.0, 1j]

    ORDERS = [2, 15, 16, 17, 63, 64, 65, 200]

    @pytest.mark.parametrize("order", ORDERS)
    def test_deviation_matches_dense_reference(self, order):
        rng = np.random.default_rng(order)
        shape = (order + 1, order + 1)
        noise = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        cls = Binomial(lam=0.6, eta=1.5)
        sp = synthesize(cls, 0.5 * np.exp(0.7j), 0.2 + 0.01j, 1.0, order)
        section = operators.build_matrix(sp, family_weights(cls, order))
        for m in (noise, section):
            assert operators.hermitian_deviation(m) == dense_deviation(m)

    @pytest.mark.parametrize("order", ORDERS)
    def test_conjugation_matches_dense_reference(self, order):
        """Two pairs walked side by side, interleaved in one ring, give each
        pair's own fill bitwise: a lam < 1 pair and its dilate, whose
        sections then agree entry by entry to rounding."""
        sp = synthesize(Binomial(lam=0.7, eta=2.5), 0.6 * np.exp(2.1j), 0.15, 1.0 - 0.5j, order)
        pairs = [sp, dilate(sp)]
        betas = [family_weights(p.cls, order).beta for p in pairs]
        walked = np.zeros((2, order + 1, order + 1), dtype=complex)
        for s, rows, diagonal in walked_anti_diagonals(pairs, betas, order):
            for c in range(2):
                walked[c, rows, s - rows] = diagonal[2 * (rows + 1) + c]
        sections = [family_section(p) for p in pairs]
        assert [w.tobytes() for w in walked] == [m.tobytes() for m in sections]
        assert np.max(np.abs(sections[0] - sections[1])) <= 1e-10

    def test_tie_across_blocks_keeps_the_first_in_row_major_order(self):
        block = operators.ROW_BLOCK
        m = np.zeros((2 * block + 3, 2 * block + 3), dtype=complex)
        m[block + 6, block + 6] = 1j  # |M - M*| = 2 on the diagonal, second block
        m[3, 3] = 1j  # the same value in the first block
        m[2, block + 1] = 1.5  # smaller, in both blocks
        assert operators.hermitian_deviation(m) == dense_deviation(m)
        assert operators.hermitian_deviation(m)[:2] == (2.0, (3, 3))
        m[2 * block + 1, 2 * block + 1] = 1.5j  # strictly larger, last block
        assert operators.hermitian_deviation(m)[:2] == (3.0, (2 * block + 1, 2 * block + 1))

    def test_nan_entry_is_reported_as_the_dense_argmax_reports_it(self):
        m = np.zeros((150, 150), dtype=complex)
        m[0, 5] = 4.0
        m[100, 1] = np.nan
        m[120, 2] = np.nan
        assert repr(operators.hermitian_deviation(m)) == repr(dense_deviation(m))
        assert operators.hermitian_deviation(m)[1] == (1, 100)

    def test_deviation_beyond_the_double_range_is_refused(self):
        m = np.zeros((3, 3), dtype=complex)
        m[1, 2], m[2, 1] = 1e308, -1e308
        with pytest.raises(DomainError, match=r"at entry \(1, 2\) is beyond the double range"):
            operators.hermitian_deviation(m)

    @settings(max_examples=300, derandomize=True, deadline=None)
    @given(data=st.data())
    def test_row_maxima_match_dense_reference(self, data):
        """Small integer parts make ties across blocks and across the
        diagonal common; NaN and +-1e308 entries land in either triangle."""
        order = data.draw(st.integers(1, 3 * operators.ROW_BLOCK + 1), label="order")
        span = data.draw(st.integers(0, 2), label="span")
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
        shape = (order + 1, order + 1)
        m = rng.integers(-span, span + 1, shape) + 1j * rng.integers(-span, span + 1, shape)
        if data.draw(st.booleans(), label="hermitian"):
            m = m + m.conj().T  # exact: every deviation comes from the entries below
        index = st.integers(0, order)
        for i, j, value in data.draw(
            st.lists(st.tuples(index, index, st.sampled_from(self.SPECIALS)), max_size=4),
            label="specials",
        ):
            m[i, j] = value
        with np.errstate(over="ignore"):
            want = dense_deviation(m)
        if want[0] == np.inf:
            with pytest.raises(DomainError, match=rf"at entry \({want[1][0]}, {want[1][1]}\) is beyond"):
                operators.hermitian_deviation(m)
        else:
            assert repr(operators.hermitian_deviation(m)) == repr(want)


class TestApply:
    def test_constant_gives_psi(self):
        sp, _ = hardy_pair(order=16)
        out = operators.apply(sp, monomial(0, 16))
        assert np.allclose(out.coeffs, sp.psi.coeffs)

    def test_z_gives_psi_phi(self):
        sp, _ = hardy_pair(order=16)
        out = operators.apply(sp, monomial(1, 16))
        assert np.allclose(out.coeffs, (sp.psi * sp.phi).coeffs)

    def test_matrix_vector_agreement(self):
        rng = np.random.default_rng(67)
        sp, ws = hardy_pair(order=32)
        m = operators.build_matrix(sp, ws)
        for _ in range(10):
            coeffs = rng.standard_normal(33) + 1j * rng.standard_normal(33)
            f = TruncatedSeries(coeffs)
            direct = operators.apply(sp, f).coeffs
            via_matrix = (m @ (coeffs * ws.beta)) / ws.beta
            assert np.max(np.abs(direct - via_matrix)) <= 1e-12 * max(
                1.0, np.max(np.abs(direct))
            )


class TestKernelIdentity:
    def test_adjoint_at_origin(self):
        sp, ws = hardy_pair(order=32)
        out = operators.adjoint_on_kernel(sp, 0.0, ws)
        want = 1.0 * kernel(0.5, ws)  # c * K_{a0}
        assert np.allclose(out.coeffs, want.coeffs)

    def test_exponential_closed_form(self):
        from wco.series import exp_series

        b_sq = 1.0
        sp = synthesize(Exponential(b_sq=b_sq), 0.3, 0.5, 2.0, 48)
        ws = fock_weights(1.0, 48)
        w = 0.4 + 0.1j
        out = operators.adjoint_on_kernel(sp, w, ws)
        scale = 2.0 * np.exp(0.3 * np.conj(w) / b_sq)
        want = scale * exp_series((0.3 + 0.5 * np.conj(w)) / b_sq, 48)
        assert np.max(np.abs(out.coeffs - want.coeffs)) < 1e-12

    def test_binomial_closed_form(self):
        from wco.series import binomial_series

        cls = Binomial(lam=0.7, eta=2.0, gamma=1.5)
        a0, a1, c = 0.4 + 0.2j, 0.1, 1.0
        sp = synthesize(cls, a0, a1, c, 48)
        ws = family_weights(cls, 48)
        w = 0.3 - 0.25j
        # both sides collapse to c*(1 - A z - B(1 - A z) - C z)^(-eta) with
        # A = lam conj(a0), B = lam conj(w) a0, C = lam conj(w) a1
        A = cls.lam * np.conj(a0)
        B = cls.lam * np.conj(w) * a0
        C = cls.lam * np.conj(w) * a1
        # rewrite as (1-B) * (1 - (A(1-B)+C)/(1-B) z): a binomial series again
        scale = (1.0 - B) ** (-cls.eta)
        ratio = (A * (1.0 - B) + C) / (1.0 - B)
        want = (c * scale) * binomial_series(ratio, cls.eta, 48)
        got = operators.adjoint_on_kernel(sp, w, ws)
        assert np.max(np.abs(got.coeffs - want.coeffs)) < 1e-12

    # a report-large pair (bench/inputs.py report_pool, seed 2): at N = 512
    # unscaled, 24,061 of the 263,169 products M[i, j] K_w(j) beta(j) at
    # w = 0.3 + 0.2i have a subnormal part
    SUBNORMAL_PRODUCTS_PAIR = (
        Binomial(lam=0.6177077277870756, eta=1.0399959885521741),
        complex(0.682040615123931, 0.5050483446449394),
        -0.09926292767294383,
        -0.9979547146425415,
    )

    def subnormal_products_section(self):
        cls, a0, a1, c = self.SUBNORMAL_PRODUCTS_PAIR
        ws = family_weights(cls, 512)
        m = operators.build_matrix(synthesize(cls, a0, a1, c, 512), ws)
        return m, kernel(0.3 + 0.2j, ws).coeffs * ws.beta

    def test_forward_product_against_a_50_digit_reference(self):
        m, terms = self.subnormal_products_section()
        got = operators._section_times(m, terms)
        rows = range(0, m.shape[0], 8)
        with mpmath.workdps(50):
            xs = [mpmath.mpc(x.real, x.imag) for x in terms.tolist()]
            want = [
                complex(mpmath.fsum(mpmath.mpc(a.real, a.imag) * x for a, x in zip(m[i].tolist(), xs)))
                for i in rows
            ]
        size = np.abs(m[rows]) @ np.abs(terms)  # sum_j |M[i, j] terms(j)|
        assert np.max(np.abs(got[rows] - want) / size) <= 1e-15

    def test_no_scaled_block_product_is_subnormal(self, monkeypatch):
        m, terms = self.subnormal_products_section()
        tiny = np.finfo(float).tiny

        def subnormal_parts(products):
            parts = products.view(float)
            return np.count_nonzero((parts != 0) & (np.abs(parts) < tiny))

        assert subnormal_parts(m * terms) > 20_000  # unscaled
        operands, einsum = [], np.einsum

        def recorded(spec, section, scaled, **kwargs):
            operands.append((section, scaled.copy()))
            return einsum(spec, section, scaled, **kwargs)

        monkeypatch.setattr(np, "einsum", recorded)
        operators._section_times(m, terms)
        monkeypatch.undo()
        assert sum(scaled.size for _, scaled in operands) == terms.size
        assert [subnormal_parts(section * scaled) for section, scaled in operands] == [0] * len(operands)

    def test_scaled_block_sums_overflow_nothing_the_plain_product_holds(self):
        """Scaled terms stay below 1 / (2 ROW_BLOCK), so a block of entries
        near the top of the double range sums to a double."""
        m = np.full((33, 33), 1e308, dtype=complex)
        terms = np.full(33, 2.0**-60, dtype=complex)
        terms[0] = 1.0
        plain = np.einsum("ij,j->i", m, terms)
        assert np.all(np.isfinite(plain))
        assert np.allclose(operators._section_times(m, terms), plain, rtol=1e-15, atol=0)

    @pytest.mark.parametrize("c", [1e300, -1e306])
    def test_pair_with_huge_entries_is_judged_not_refused(self, c):
        cls = Binomial(lam=0.5, eta=3.0)
        sp = synthesize(cls, 0.9, 0.05, c, 256)
        ws = family_weights(cls, 256)
        m = operators.build_matrix(sp, ws)
        assert operators.kernel_identity_residual(m, sp, ws, 0.3 + 0.2j) <= 1e-14 * abs(c)

    def test_residual_small_for_hermitian_pair(self):
        sp, ws = hardy_pair(order=96)
        m = operators.build_matrix(sp, ws)
        res = operators.kernel_identity_residual(m, sp, ws, 0.3 + 0.2j)
        assert res <= 1e-8

    def test_residual_zero_at_origin(self):
        sp, ws = hardy_pair(order=32)
        m = operators.build_matrix(sp, ws)
        assert operators.kernel_identity_residual(m, sp, ws, 0.0) <= 1e-14

    def test_residual_large_for_perturbed_pair(self):
        sp, ws = hardy_pair(a1=0.1 + 0.05j, order=64)
        m = operators.build_matrix(sp, ws)
        assert operators.kernel_identity_residual(m, sp, ws, 0.3 + 0.2j) > 1e-3

    def test_tail_bound_decreases_with_order(self):
        # log10 of the tail mass
        t32 = operators.kernel_tail_bound(HARDY, 0.3 + 0.2j, 32)
        t64 = operators.kernel_tail_bound(HARDY, 0.3 + 0.2j, 64)
        assert -math.inf < t64 < t32 < -10

    @pytest.mark.parametrize("order", [32, 64])
    def test_tail_bound_against_the_hardy_closed_form(self, order):
        with mpmath.workdps(50):  # |w|^2 of the doubles 0.3 and 0.2, not of their rounded modulus
            w_sq = mpmath.mpf(0.3) ** 2 + mpmath.mpf(0.2) ** 2
            exact = mpmath.log10(w_sq ** (order + 1) / (1 - w_sq))
            excess = (operators.kernel_tail_bound(HARDY, 0.3 + 0.2j, order) - exact) * mpmath.log(10)
        assert 0 <= excess <= 1e-12, excess  # relative excess of the mass

    @pytest.mark.parametrize("w", [0.99999, 0.99999997])
    def test_tail_bound_at_the_term_cap(self, w):
        # |w|^2 near 1: the sum stops after KERNEL_TAIL_TERMS terms, and the
        # remainder t r / (1 - r) carries the rounding of 1 - r
        with mpmath.workdps(50):
            w_sq = mpmath.mpf(w) ** 2
            exact = mpmath.log10(w_sq**65 / (1 - w_sq))
            excess = (operators.kernel_tail_bound(HARDY, w, 64) - exact) * mpmath.log(10)
        assert 0 <= excess <= 1e-7, excess  # relative excess of the mass

    @staticmethod
    def exact_tail_log10(cls, w, order):
        """log10 of the kernel tail mass, summed at 50 digits until the terms
        fall below 1e-60 of the sum (mpmath.nsum reads 1.4e-12 low on the
        binomial tail)."""
        with mpmath.workdps(50):
            w_sq = mpmath.mpf(abs(complex(w))) ** 2
            term, total, j = mpmath.mpf(1), mpmath.mpf(0), 0
            while True:
                if j > order:
                    total += term
                    if term < mpmath.mpf(10) ** -60 * total:
                        return mpmath.log10(total)
                if isinstance(cls, Binomial):
                    term *= w_sq * cls.lam * (mpmath.mpf(cls.eta) + j) / (j + 1)
                else:
                    term *= w_sq / (mpmath.mpf(cls.b_sq) * (j + 1))
                j += 1

    @pytest.mark.parametrize(
        "cls, order, w",
        [
            (Binomial(lam=0.5, eta=1.3), 64, 0.3 + 0.2j),
            (Exponential(b_sq=1.0), 64, 0.3 + 0.2j),
            # points where the summed logs round below the exact mass
            (HARDY, 32, -0.2185091786466321 + 0.2453634888080437j),
            (Binomial(lam=1.0, eta=30.0), 64, -0.337877573768143 + 0.0004189489552700598j),
            (Binomial(lam=0.3, eta=0.4), 64, -0.3615431512472318 - 0.03590300914237443j),
            (Exponential(b_sq=1.0), 16, 0.5385924501660933 + 0.5248580293702018j),
            # |w|^2 ratio(N + 1) = 1 - 1e-9: the terms fall from N + 1 on
            (Exponential(b_sq=0.13 / 18 * (1 + 1e-9)), 16, 0.3 + 0.2j),
        ],
        ids=["binomial", "fock", "hardy-32", "bergman-30", "binomial-eta-0.4", "fock-16",
             "fock-falling-at-1"],
    )
    def test_tail_bound_against_a_50_digit_sum(self, cls, order, w):
        exact = self.exact_tail_log10(cls, w, order)
        excess = (operators.kernel_tail_bound(cls, w, order) - exact) * mpmath.log(10)
        assert 0 <= excess <= 1e-12, excess  # relative excess of the mass

    @staticmethod
    def closed_form_tail_log10(cls, w, order):
        """log10 of the kernel tail mass in closed form, at 50 digits: with
        y = |w|^2 / b^2 the Fock tail is e^y P(N + 1, y); with x = lam |w|^2
        the binomial tail is (1 - x)^(-eta) I_x(N + 1, eta), and
        I_x(N + 1, eta) = 1 - I_(1-x)(eta, N + 1), whose series ends."""
        with mpmath.workdps(50):
            w_sq = mpmath.mpf(abs(complex(w))) ** 2
            if isinstance(cls, Exponential):
                y = w_sq / mpmath.mpf(cls.b_sq)
                return mpmath.log10(mpmath.exp(y) * mpmath.gammainc(order + 1, 0, y, regularized=True))
            x, eta = mpmath.mpf(cls.lam) * w_sq, mpmath.mpf(cls.eta)
            upper = mpmath.betainc(eta, order + 1, 0, 1 - x, regularized=True)
            return mpmath.log10((1 - x) ** -eta * (1 - upper))

    @pytest.mark.parametrize(
        "cls, order",
        [
            (Binomial(lam=1.0, eta=450.0), 64),
            (Binomial(lam=1.0, eta=600.0), 64),
            (Binomial(lam=1.0, eta=1200.0), 64),
            (Exponential(b_sq=0.01**2), 64),
            (Exponential(b_sq=0.02**2), 64),
            (Exponential(b_sq=0.04**2), 64),
            (Exponential(b_sq=0.08**2), 16),
            # |w|^2 ratio(N + 1) = 1 + 1e-9
            (Exponential(b_sq=0.13 / 18 * (1 - 1e-9)), 16),
        ],
        ids=["bergman-450", "bergman-600", "bergman-1200", "fock-0.01", "fock-0.02", "fock-0.04",
             "fock-0.08-16", "fock-rising-at-1"],
    )
    def test_rising_tail_is_bounded_within_n_plus_2(self, cls, order):
        # the terms still rise at N + 1, so the tail is at least 1/(N + 2) of
        # the whole series, which bounds it
        w = 0.3 + 0.2j
        assert abs(w) ** 2 * cls.coefficient_ratio(order + 1) >= 1.0
        exact = self.closed_form_tail_log10(cls, w, order)
        bound = operators.kernel_tail_bound(cls, w, order)
        assert exact <= bound <= exact + math.log10(order + 2)

    @settings(max_examples=40, derandomize=True, deadline=None)
    @given(
        cls=st.one_of(
            st.floats(0.05, 2.0).map(lambda b: Exponential(b_sq=b * b)),
            st.floats(1.0, 300.0).map(lambda eta: Binomial(lam=1.0, eta=eta)),
            st.builds(Binomial, lam=st.floats(0.05, 1.0), eta=st.floats(0.05, 50.0)),
        ),
        w=st.builds(cmath.rect, st.floats(1e-3, 0.8), st.floats(0.0, 2.0 * math.pi)),
        order=st.sampled_from([4, 16, 64]),
    )
    def test_tail_bound_is_never_below_a_50_digit_sum(self, cls, w, order):
        assert operators.kernel_tail_bound(cls, w, order) >= self.exact_tail_log10(cls, w, order)

    @pytest.mark.parametrize(
        "cls", [Exponential(b_sq=0.01**2), Binomial(lam=1.0, eta=1200.0), Binomial(lam=0.5, eta=1.3)],
        ids=["fock-0.01", "bergman-1200", "binomial"],
    )
    def test_closed_form_tail_matches_a_50_digit_sum(self, cls):
        closed = self.closed_form_tail_log10(cls, 0.3 + 0.2j, 64)
        assert abs(closed - self.exact_tail_log10(cls, 0.3 + 0.2j, 64)) <= 1e-40 * abs(closed)

    @pytest.mark.parametrize(
        "cls, order, mass_log10",
        [
            (Exponential(b_sq=0.00115**2), 64, 42690.57),
            (Binomial(lam=1.0, eta=1e6), 64, 60480.75),
            # |w|^2 ratio(j) rounds to 1 past the peak, so no sum of terms ends
            (Exponential(b_sq=1e-11**2), 5, 5.645828265e20),
            (Exponential(b_sq=1e-13**2), 5, 5.645828265e24),
        ],
        ids=["fock-0.00115", "bergman-1e6", "fock-1e-11", "fock-1e-13"],
    )
    def test_tail_peaking_past_the_term_budget_is_bounded(self, cls, order, mass_log10):
        # the terms still rise at N + 1 (for ~1e5 indices or more past N):
        # the whole series log k(|w|^2) bounds the tail
        exact = self.closed_form_tail_log10(cls, 0.3 + 0.2j, order)
        assert float(exact) == pytest.approx(mass_log10, rel=1e-9, abs=0.005)
        bound = operators.kernel_tail_bound(cls, 0.3 + 0.2j, order)
        assert math.isfinite(bound)
        excess = (bound - exact) * mpmath.log(10)
        # relative excess of the mass; past 1e7 its log is rounded by more than 1e-7
        assert 0 <= excess <= max(1e-7, 1e-14 * exact * mpmath.log(10)), excess

    def test_divergent_tail_is_unbounded(self):
        assert operators.kernel_tail_bound(HARDY, 1.0, 64) == math.inf

    def test_tail_within_rounding_of_divergence_is_unbounded(self):
        # |w|^2 lam = 1 - 1.1e-16, and lam (eta + j) / (j + 1) rounds above lam
        cls = Binomial(lam=0.1, eta=1.0 - 1e-12)
        assert operators.kernel_tail_bound(cls, 3.162277660168379, 4) == math.inf

    def test_far_point_rejected(self):
        sp, ws = hardy_pair(order=16)
        m = operators.build_matrix(sp, ws)
        with pytest.raises(DomainError):
            operators.kernel_identity_residual(m, sp, ws, 0.9)

    @staticmethod
    def composed_forward(sp, ws, w):
        """W K_w = psi * (K_w o phi) by series composition, in the
        normalized basis: an evaluation that never forms the section."""
        forward = sp.psi * compose_poly(kernel(w, ws), sp.phi)
        return forward.coeffs * ws.beta

    @pytest.mark.parametrize(
        "cls, weights",
        [
            (HARDY, hardy_weights),
            (Binomial(lam=1.0, eta=2.0), lambda n: bergman_weights(2.0, n)),
            (Binomial(lam=0.5, eta=1.0), lambda n: family_weights(Binomial(lam=0.5, eta=1.0), n)),
            (Exponential(b_sq=1.0), lambda n: fock_weights(1.0, n)),
        ],
        ids=["hardy", "bergman-2", "binomial-lam-0.5", "fock"],
    )
    @pytest.mark.parametrize("a1_imag", [0.0, 0.05], ids=["hermitian", "perturbed"])
    def test_section_forward_side_matches_composition(self, cls, weights, a1_imag):
        n, w = 64, 0.3 + 0.2j
        a0 = 0.4 * np.exp(0.3j)
        lam = cls.lam if isinstance(cls, Binomial) else 0.0
        a1 = (0.5 * (1.0 - abs(a0)) * (1.0 - lam * abs(a0))) + 1j * a1_imag
        sp, ws = synthesize(cls, a0, a1, 1.3, n), weights(n)
        m = operators.build_matrix(sp, ws)
        forward = self.composed_forward(sp, ws, w)
        backward = operators.adjoint_on_kernel(sp, w, ws).coeffs * ws.beta
        via_composition = float(np.linalg.norm(forward - backward))
        via_section = operators.kernel_identity_residual(m, sp, ws, w)
        assert abs(via_section - via_composition) <= 1e-13
        if a1_imag:
            assert via_section > 1e-3

    def test_section_forward_side_rejects_dirichlet_pair(self):
        n, w = 64, 0.3 + 0.2j
        ws = dirichlet_weights(n)
        sp = synthesize_from_weights(ws, 0.6, 0.3, 1.0)
        forward = self.composed_forward(sp, ws, w)
        backward = operators.adjoint_on_kernel(sp, w, ws).coeffs * ws.beta
        via_composition = float(np.linalg.norm(forward - backward))
        m = operators.build_matrix(sp, ws)
        via_section = operators.kernel_identity_residual(m, sp, ws, w)
        assert via_composition > 1e-3 and via_section > 1e-3
        assert via_section == pytest.approx(via_composition, rel=1e-12)


def conjugation_residual(sp):
    """max |M - M'| between the sections of the pair and of its dilate."""
    return float(np.max(np.abs(family_section(sp) - family_section(dilate(sp)))))


class TestConjugation:
    def test_lambda_one_identity(self):
        sp, _ = hardy_pair(order=32)
        assert conjugation_residual(sp) <= 1e-15

    def test_half_lambda(self):
        cls = Binomial(lam=0.5, eta=1.0, gamma=2.0)
        sp = synthesize(cls, 0.4, 0.1, 1.0, 64)
        assert conjugation_residual(sp) <= 1e-10

    def test_norm_preservation_of_dilation(self):
        # the lam-space weight of z^j equals lam^(-j/2) times the lam=1 weight
        lam, eta = 0.25, 1.7
        ws_lam = family_weights(Binomial(lam, eta, (eta + 1) / eta), 20)
        ws_one = family_weights(Binomial(1.0, eta, (eta + 1) / eta), 20)
        j = np.arange(21)
        assert np.allclose(ws_lam.beta, ws_one.beta * lam ** (-j / 2.0), rtol=1e-12)

    def test_dilate_whose_raw_coefficients_overflow_builds(self):
        # the dilate's raw coefficients [z^i](psi phi^j) leave the double range,
        # as the convolution path, which normalizes last, shows; filled from the
        # weight ratios its section is finite, and so is the residual
        sp = synthesize(Binomial(lam=0.3, eta=30.0), 0.5, 1.0, 1e300, 32)
        tilted = dilate(sp)
        tilted_ws = family_weights(tilted.cls, 32)
        with pytest.raises(DomainError, match=r"section entry \(32, 29\) is not finite"):
            operators.build_matrix(dataclasses.replace(tilted, phi_pole=None), tilted_ws)
        assert np.all(np.isfinite(operators.build_matrix(tilted, tilted_ws)))
        assert math.isfinite(conjugation_residual(sp))

    def test_non_finite_dilated_section_is_named_by_its_first_row(self):
        # a lam < 1 pair whose dilate is the Bergman eta = 3 pair at a0 = 0.9,
        # c = 1e305: both sections leave the double range at the same entry
        sp = synthesize(Binomial(lam=0.5, eta=3.0), 0.9 / math.sqrt(0.5), 0.05, 1e305, 64)
        for pair in (sp, dilate(sp)):
            with pytest.raises(DomainError) as refusal:
                family_section(pair)
            assert str(refusal.value) == "section entry (20, 48) is not finite: (inf+0j)"


class TestFockBound:
    def test_centered_case_by_hand(self):
        sp = synthesize(Exponential(b_sq=1.0), 0.0, 0.5, 1.0, 8)
        assert operators.fock_log_bound(sp) == pytest.approx(math.log(4.0))

    def test_c_scaling(self):
        sp1 = synthesize(Exponential(b_sq=1.0), 0.2, 0.5, 1.0, 8)
        sp3 = synthesize(Exponential(b_sq=1.0), 0.2, 0.5, 3.0, 8)
        assert operators.fock_log_bound(sp3) == pytest.approx(
            math.log(9.0) + operators.fock_log_bound(sp1)
        )

    def test_dominates_finite_sections(self):
        rng = np.random.default_rng(71)
        for _ in range(20):
            b = rng.uniform(0.5, 2.0)
            m = rng.uniform(0.0, 0.6)
            a0 = m * np.exp(2j * np.pi * rng.uniform())
            a1 = rng.uniform(0.05, 1.0 - m - 0.01)
            c = rng.uniform(0.2, 2.0)
            cls = Exponential(b_sq=b * b)
            sp = synthesize(cls, a0, a1, c, 48)
            log_bound = operators.fock_log_bound(sp)
            sigma = operators.finite_section_norm(
                operators.build_matrix(sp, fock_weights(b, 48))
            )
            assert 2.0 * math.log(sigma) <= log_bound + math.log1p(1e-12)

    def test_a1_domain(self):
        sp = synthesize(Exponential(b_sq=1.0), 0.3, 1.0, 1.0, 8)
        with pytest.raises(DomainError):
            operators.fock_log_bound(sp)


class TestFockLogBound:
    def test_vertex_is_the_supremum(self):
        # log(c^2/a1^2) + max g(r)/b^2 over a fine grid in r = |z - a0| stays
        # below the closed form and within the grid's step of it; the vertex
        # r = |a0| a1/(1 - a1) lies below 1 for these draws
        rng = np.random.default_rng(5)
        for _ in range(20):
            b, m = rng.uniform(0.3, 2.0), rng.uniform(0.0, 0.6)
            a1, c = rng.uniform(0.05, 1.0 - m - 0.01), rng.uniform(0.2, 2.0)
            sp = synthesize(
                Exponential(b_sq=b * b), m * np.exp(1j * rng.uniform(0, 6.3)), a1, c, 8
            )
            r = np.linspace(0.0, 1.0, 1_000_001)
            g = (1.0 - 1.0 / a1**2) * r**2 + 2.0 * m * (1.0 + 1.0 / a1) * r + m * m
            on_grid = math.log(c * c / (a1 * a1)) + float(np.max(g)) / (b * b)
            log_bound = operators.fock_log_bound(sp)
            assert on_grid <= log_bound + 1e-12 * max(1.0, abs(log_bound))
            assert on_grid == pytest.approx(log_bound, rel=1e-8, abs=1e-8)

    def test_finite_where_the_bound_overflows(self):
        sp = synthesize(Exponential(b_sq=0.035**2), 0.6, 0.3, 1.0, 8)
        assert operators.fock_log_bound(sp) > math.log(sys.float_info.max)
        assert operators.fock_log_bound(sp) == pytest.approx(842.058, rel=1e-6)

    def test_zero_c(self):
        sp = synthesize(Exponential(b_sq=1.0), 0.2, 0.5, 0.0, 8)
        assert operators.fock_log_bound(sp) == -math.inf

    def test_closed_form_against_a_50_digit_vertex(self):
        # the parabola at its vertex r* = -lin/(2 quad), at 50 digits, with c
        # and a1 where c^2/a1^2 and 1/a1^2 leave the double range
        rng = np.random.default_rng(83)
        for _ in range(200):
            b, m = 10.0 ** rng.uniform(-2, 2), rng.uniform(0.0, 0.99)
            a1, c = 10.0 ** rng.uniform(-300, -1e-3), 10.0 ** rng.uniform(-300, 300)
            cls = Exponential(b_sq=b * b)
            sp = synthesize(cls, m * np.exp(2j * np.pi * rng.uniform()), a1, c, 3)
            log_bound = operators.fock_log_bound(sp)
            with mpmath.workdps(50):
                m_, a1_, c_ = (mpmath.mpf(abs(x)) for x in (sp.a0, sp.a1, sp.c))
                quad, lin = 1 - 1 / a1_**2, 2 * m_ * (1 + 1 / a1_)
                r = -lin / (2 * quad)
                vertex = quad * r**2 + lin * r + m_**2
                exact = mpmath.log(c_**2 / a1_**2) + vertex / mpmath.mpf(cls.b_sq)
                size = 2 * abs(mpmath.log(c_)) + 2 * abs(mpmath.log(a1_)) + vertex / cls.b_sq
            assert abs(log_bound - exact) <= 1e-14 * size, (log_bound, exact)


class TestStressOrder:
    def test_hermitian_at_order_256(self):
        sp, ws = hardy_pair(a0=0.5 * np.exp(0.4j), a1=0.12, c=-0.9, order=256)
        m = operators.build_matrix(sp, ws)
        assert operators.hermitian_deviation(m)[0] <= 1e-10

    def test_small_lambda_at_order_256(self):
        cls = Binomial(lam=0.1, eta=0.9, gamma=1.9 / 0.9)
        ws = family_weights(cls, 256)
        sp = synthesize(cls, 0.6 * np.exp(1.9j), 0.05, 1.0, 256)
        m = operators.build_matrix(sp, ws)
        assert np.all(np.isfinite(ws.beta))
        assert operators.hermitian_deviation(m)[0] <= 1e-10
