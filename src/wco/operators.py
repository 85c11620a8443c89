"""Finite sections of weighted composition operators and their checks.

The operator f -> psi * (f o phi) acting on a weighted Hardy space has, in
the normalized monomial basis e_j = z^j / beta(j), the matrix

    M[i, j] = (beta(i) / beta(j)) * [z^i](psi * phi^j).

Coefficient i of psi * phi^j depends only on coefficients 0..i of psi and
phi, so every entry of the (N+1) x (N+1) section equals the corresponding
entry of the infinite matrix: Hermitian-ness certified here is exact, not
an artifact of truncation.  Operator norms, in contrast, are only reached
from below by finite sections; the one quantitative upper bound available
is the Gaussian-family estimate, in log units `fock_log_bound`.

`build_matrix` walks the power chain once.  On the hospitable families phi
is linear-fractional, so the columns psi phi^j obey a three-term recurrence
and the section is filled one anti-diagonal at a time in O(N^2); a pair
whose phi is only a series (the general shape over arbitrary weights) is
convolved column by column in O(N^3).  Both summation orders are
independent of N.  Against a 50-digit reference (tests/test_operators.py)
the entries at N = 40 are within 2.0e-16 in the normalized basis on both
paths, and at N = 256 the two paths agree to 1.3e-16 of the largest entry,
with subnormal tails (lam |a0| = 0.05) or without.

The section is the one power table of a pair, a read-only square complex
array: `hermitian_deviation` reads |M - M*| off it in blocks of
`ROW_BLOCK` rows, `kernel_identity_residual` reads W K_w off it as a
matrix-vector product, and `conjugation_check` compares it, again row
block by row block, with the dilated pair's section.  Each check takes the
section, reads the order from its shape and refuses symbols or weights of
another order.  A report therefore holds at
most two sections, the pair's and the dilated pair's, plus O(N) rows of
scratch: at N = 512 (one section is 4.02 MiB) one `full_report` on a
binomial pair peaks at 2.07 sections under tracemalloc (1.08 when lam = 1
leaves out the dilated section).
"""

from __future__ import annotations

import math
import sys

import numpy as np

from .series import TruncatedSeries, common_order, compose_poly
from .spaces import (
    Binomial,
    DomainError,
    Exponential,
    WeightSequence,
    family_weights,
    kernel,
)
from .symbols import SymbolPair, dilate

__all__ = [
    "build_matrix",
    "hermitian_deviation",
    "apply",
    "adjoint_on_kernel",
    "kernel_identity_residual",
    "kernel_tail_bound",
    "conjugation_check",
    "fock_log_bound",
    "finite_section_norm",
]


#: terms of the kernel tail summed at most by `kernel_tail_bound`
KERNEL_TAIL_TERMS = 100_000
#: `kernel_tail_bound` stops at a remainder below 1e-30 of the running mass
LOG_TAIL_CUTOFF = math.log(1e-30)
#: rows of a section read at once by the O(N^2) checks after the fill
ROW_BLOCK = 16


def build_matrix(sp: SymbolPair, ws: WeightSequence) -> np.ndarray:
    """Assemble the section: column j is psi * phi^j, normalized, as a
    read-only (N+1) x (N+1) complex array, N the order that the symbols and
    the weights share (ValueError naming both when they differ).

    A family pair (``sp.phi_pole`` set) has phi = a0 + a1 z / (1 - q z), so
    phi (1 - q z) = a0 + d z with d = a1 - a0 q, and the columns
    P_j = psi phi^j obey P_{j+1} (1 - q z) = P_j (a0 + d z).  Reading off
    coefficient i gives the three-term recurrence

        E[i, j+1] = q E[i-1, j+1] + a0 E[i, j] + d E[i-1, j]

    from column 0 = psi (E[-1, .] = 0): three multiply-adds per entry.
    Entry (i, j+1) reads anti-diagonals i + j and i + j - 1 only, so the
    table is filled one anti-diagonal at a time (`_linear_fractional_table`).
    Any other pair (phi known only as a series) takes column j + 1 as
    column j convolved with phi, truncated at order N.

    Either way every coefficient is computed from entries with smaller i
    and j in an order that does not depend on N, so the section at order N
    is bitwise the top-left block of the section at 2N.  The normalization
    (x * beta(i)) / beta(j) is applied in place once the table is done.
    Measured entry error against a 50-digit reference: at most 2.0e-16 at
    N = 40 on Hardy, Bergman, binomial, Fock and Dirichlet pairs.
    """
    n = common_order(symbols=sp.order, weights=ws.order)
    psi = sp.psi.coeffs
    if sp.phi_pole is None:
        phi = sp.phi.coeffs
        entries = np.empty((n + 1, n + 1), dtype=complex)
        entries[:, 0] = psi
        for j in range(n):
            entries[:, j + 1] = np.convolve(entries[:, j], phi)[: n + 1]
    else:
        entries = _linear_fractional_table(psi, sp.a0, sp.a1, sp.phi_pole)
    entries *= ws.beta[:, None]
    entries /= ws.beta[None, :]
    entries.setflags(write=False)
    return entries


def _linear_fractional_table(
    psi: np.ndarray, a0: complex, a1: complex, q: complex
) -> np.ndarray:
    """Coefficients [z^i](psi phi^j), i, j <= N, for phi = a0 + a1 z/(1 - q z).

    The table sits below one zero row that stands for E[-1, .], so the
    recurrence needs no edge case.  In the flattened row-major buffer the
    entries (i, s - i) of anti-diagonal s are a basic slice of stride N;
    its three inputs are the same slice shifted one row up, one column
    left, and both.  Two scratch buffers hold the partial sums.
    """
    n = psi.size - 1
    d = a1 - a0 * q
    padded = np.zeros((n + 2, n + 1), dtype=complex)
    padded[1:, 0] = psi
    flat = padded.reshape(-1)
    up, left = n + 1, 1
    buf_a = np.empty(n + 1, dtype=complex)
    buf_b = np.empty(n + 1, dtype=complex)
    for s in range(1, 2 * n + 1):
        lo, hi = max(0, s - n), min(s - 1, n)  # rows of entries (i, s - i), s - i >= 1
        start = (lo + 1) * (n + 1) + s - lo
        stop = start + (hi - lo) * n + 1
        a = np.multiply(flat[start - up : stop - up : n], q, out=buf_a[: hi - lo + 1])
        b = np.multiply(flat[start - left : stop - left : n], a0, out=buf_b[: hi - lo + 1])
        np.add(a, b, out=a)
        np.multiply(flat[start - up - left : stop - up - left : n], d, out=b)
        np.add(a, b, out=flat[start:stop:n])
    return padded[1:]


def hermitian_deviation(m: np.ndarray) -> tuple[float, tuple[int, int], tuple[float, ...]]:
    """max |M - M*|, an entry where it is attained, and the three moments.

    The deviation is zero iff the section is Hermitian.  The moments are
    self-adjointness restricted to the first three basis vectors,
    m_j = max_i |M[i,j] - conj(M[j,i])|: the first two vanish for any
    weight sequence once the symbols have the required closed-form shape;
    the third is the discriminating condition that forces the generating
    function's differential equation.

    |M - M*| is formed `ROW_BLOCK` rows at a time into two buffers that
    every block reuses (the difference and its modulus), so no second
    section is allocated.  The entry reported is the first maximum in
    row-major order (a later block wins only with a strictly larger value;
    a NaN wins over every number), exactly as an argmax over the whole
    table would give.
    """
    n = m.shape[0]
    peak, where = -np.inf, (0, 0)
    moments = np.full(3, -np.inf)
    block = np.empty((min(ROW_BLOCK, n), n), dtype=complex)
    modulus = np.empty(block.shape)
    for r in range(0, n, ROW_BLOCK):
        rows = min(ROW_BLOCK, n - r)
        diff = np.conjugate(m[:, r : r + rows].T, out=block[:rows])
        np.subtract(m[r : r + rows], diff, out=diff)
        diff = np.abs(diff, out=modulus[:rows])
        i, j = divmod(int(np.argmax(diff)), n)
        if diff[i, j] > peak or (np.isnan(diff[i, j]) and not np.isnan(peak)):
            peak, where = diff[i, j], (r + i, j)
        np.maximum(moments, diff[:, :3].max(axis=0), out=moments)
    m0, m1, m2 = (float(x) for x in moments)
    return float(peak), where, (m0, m1, m2)


def apply(sp: SymbolPair, f: TruncatedSeries) -> TruncatedSeries:
    """psi * (f o phi) for polynomial f, truncated at the common order."""
    return sp.psi * compose_poly(f, sp.phi)


def adjoint_on_kernel(sp: SymbolPair, w: complex, ws: WeightSequence) -> TruncatedSeries:
    """The adjoint applied to a kernel: conj(psi(w)) * K_{phi(w)}, at the
    order that the symbols and the weights share (ValueError naming both
    when they differ).

    Requires phi(w) to stay inside the unit disk.
    """
    w = complex(w)
    common_order(symbols=sp.order, weights=ws.order)
    phi_w = sp.phi(w)
    if abs(phi_w) >= 1.0:
        raise DomainError(f"phi(w) = {phi_w} lies outside the open unit disk")
    return complex(np.conj(sp.psi(w))) * kernel(phi_w, ws)


def kernel_identity_residual(
    m: np.ndarray, sp: SymbolPair, ws: WeightSequence, w: complex
) -> float:
    """H^2(beta)-norm of (W - W*) applied to the truncated kernel at w.

    Zero (up to truncation and roundoff) exactly when the operator is
    Hermitian; `kernel_tail_bound` quantifies what truncating K_w dropped.
    The forward side W K_w = sum_j K_w(j) psi phi^j is the pair's section
    ``m`` applied to the kernel in the normalized basis, M (K_w * beta).
    The backward side conj(psi(w)) K_{phi(w)} is evaluated in closed form.
    The section, the symbols and the weights must share one order (else
    ValueError naming the orders).  A residual the double range cannot hold
    (Fock b = 0.0012, eta = 1e5 at N = 64) raises DomainError.
    """
    w = complex(w)
    if abs(w) > 0.8:
        raise DomainError(
            "kernel points are restricted to |w| <= 0.8 to keep the truncation tail controlled"
        )
    common_order(section=m.shape[0] - 1, weights=ws.order)
    with np.errstate(over="ignore", invalid="ignore"):
        backward = adjoint_on_kernel(sp, w, ws).coeffs * ws.beta
        # einsum's own loop, not BLAS gemv: its summation order does not depend
        # on the BLAS library numpy links, so the residual's bits do not either
        forward = np.einsum("ij,j->i", m, kernel(w, ws).coeffs * ws.beta)
        # scaled by a power of two before squaring (bitwise the same, unless
        # entries near the top of the double range would overflow: Fock b = 0.01)
        diff = np.abs(forward - backward)
        scale = 2.0 ** -math.frexp(float(np.max(diff)))[1]
        residual = float(np.sqrt(np.sum((diff * scale) ** 2)) / scale)
    if not math.isfinite(residual):
        raise DomainError("the kernel terms at w leave the double range")
    return residual


def kernel_tail_bound(cls, w: complex, order: int) -> float:
    """log10 of an upper bound on sum_{j > N} |w|^(2j) / beta(j)^2 for a
    family space, the squared-norm mass of the kernel tail dropped by
    truncation (-inf at w = 0; inf if the tail does not converge).

    The terms t_j are summed from their logs relative to t_(N+1), so a mass
    beyond the double range (Fock b = 0.01 has about 10^564) has a finite
    log.  Both families' coefficient ratios are monotone with limit lam, so
    r = |w|^2 max(ratio(j), lam) bounds every later t_(i+1) / t_i and the
    terms after t_j sum to at most t_j r / (1 - r): the sum stops once that
    is below 1e-30 of the running mass and adds it.  The result is raised by
    2 eps per unit of the logs summed, which covers their rounding.
    """
    if not isinstance(cls, (Exponential, Binomial)):
        raise ValueError("tail bounds are available for family spaces only")
    w_sq = abs(complex(w)) ** 2
    if w_sq == 0.0:
        return -math.inf
    log_w_sq = math.log(w_sq)
    log_ratios = [math.log(cls.coefficient_ratio(j)) for j in range(order + 1)]
    # log t_(N+1) = log(|w|^(2(N+1)) khat(N+1)), and the size of the logs in it
    log_head = (order + 1) * log_w_sq + math.fsum(log_ratios)
    log_size = (order + 1) * abs(log_w_sq) + math.fsum(map(abs, log_ratios))
    log_term, log_total = 0.0, -math.inf
    for j in range(order + 1, order + 1 + KERNEL_TAIL_TERMS):
        log_total = _log_add(log_total, log_term)
        ratio = cls.coefficient_ratio(j)
        r = w_sq * max(ratio, cls.lam)
        rest = log_term + math.log(r / (1.0 - r)) if r < 1.0 else math.inf
        if rest < LOG_TAIL_CUTOFF + log_total:
            log_mass = log_head + _log_add(log_total, rest)
            slack = 2.0 * sys.float_info.epsilon * (log_size + abs(log_mass))
            return (log_mass + slack) / math.log(10.0)
        log_ratio = math.log(ratio)
        log_term += log_w_sq + log_ratio
        log_size += abs(log_w_sq) + abs(log_ratio)
    return math.inf


def _log_add(x: float, y: float) -> float:
    """log(e^x + e^y), with x = -inf allowed."""
    hi = max(x, y)
    return hi + math.log1p(math.exp(min(x, y) - hi))


def conjugation_check(m: np.ndarray, sp: SymbolPair) -> float:
    """Entrywise residual of the dilation conjugation identity.

    The pair over the lam < 1 space and its dilated lam = 1 counterpart are
    intertwined by the (unitary) dilation z -> sqrt(lam) z, whose matrix in
    the two normalized bases is the identity; the pair's section ``m`` and
    the dilated pair's section at the same order must agree entry by entry
    (ValueError naming both orders when ``m`` and ``sp`` differ).
    The dilated section is built in full (it is the oracle); the difference
    is taken `ROW_BLOCK` rows at a time.
    """
    if not isinstance(sp.cls, Binomial):
        raise ValueError("the conjugation identity applies to binomial pairs")
    n = common_order(section=m.shape[0] - 1, symbols=sp.order)
    tilted = dilate(sp)
    m_one = build_matrix(tilted, family_weights(tilted.cls, n))
    return float(np.max([
        np.max(np.abs(m[r : r + ROW_BLOCK] - m_one[r : r + ROW_BLOCK]))
        for r in range(0, n + 1, ROW_BLOCK)
    ]))


def fock_log_bound(sp: SymbolPair) -> float:
    """log of the Gaussian-space bound on the squared operator norm,
    log(c^2/a1^2) + sup_r g(r)/b^2, where g(r) = (1 - 1/a1^2) r^2 + 2|a0|(1 +
    1/|a1|) r + |a0|^2 is a downward parabola in r = |z - a0| (its vertex gives
    the supremum).  Finite where the bound itself overflows (small b); -inf
    when c = 0."""
    if not isinstance(sp.cls, Exponential):
        raise ValueError("the Gaussian norm bound applies to exponential-family pairs")
    a1 = abs(sp.a1)
    if not (0.0 < a1 < 1.0):
        raise DomainError(f"the bound requires 0 < |a1| < 1 (got {a1})")
    b_sq = sp.cls.b_sq
    m = abs(sp.a0)
    quad = 1.0 - 1.0 / (a1 * a1)
    lin = 2.0 * m * (1.0 + 1.0 / a1)
    r_star = -lin / (2.0 * quad)  # >= 0 since quad < 0
    sup_exponent = m * m + lin * r_star + quad * r_star * r_star
    scale = abs(sp.c) ** 2 / (a1 * a1)
    return (math.log(scale) if scale > 0.0 else -math.inf) + sup_exponent / b_sq


def finite_section_norm(m: np.ndarray) -> float:
    """Largest singular value of the section: a lower bound for the operator
    norm, nondecreasing in the truncation order."""
    return float(np.linalg.svd(m, compute_uv=False)[0])
