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
is linear-fractional, so the columns psi phi^j obey a three-term recurrence;
run on the weight ratios rho(j) = beta(j) / beta(j + 1), it yields the
normalized entries themselves, one anti-diagonal at a time in O(N^2).  A
pair whose phi is only a series (the general shape over arbitrary weights)
is convolved column by column in O(N^3) and normalized at the end.  Both
summation orders are independent of N.  Against a 50-digit reference
(tests/test_operators.py) the entries at N = 40 are within 3.4e-16 in the
normalized basis on the recurrence (Bergman eta = 2 the worst) and 1.5e-16
on the convolution (Dirichlet), and at N = 256 the two paths agree to
1.1e-16 of the largest entry without subnormal tails and to 1.3e-16 with
them (lam |a0| = 0.05).

The section is the one power table of a pair, a read-only square complex
array: `hermitian_deviation` keeps one maximum per row of |M - M*| over
the upper triangle, read `ROW_BLOCK` rows at a time, and takes the
deviation, its entry and the three moments from those row maxima;
`kernel_identity_residual` reads W K_w off it as a matrix-vector product,
`ROW_BLOCK` columns at a time.  Each check takes the section, reads the
order from its shape and refuses symbols or weights of another order.
`_anti_diagonals` only runs the recurrence, for one pair or several side
by side, and yields its anti-diagonals `ROW_BLOCK` at a time, already
normalized; `build_matrix` stores each block with one masked copy.  A
lam < 1 pair needs no second section: composing with z -> sqrt(lam) z is
a unitary from the lam = 1 space onto it, under which its section is, in
exact arithmetic, the same matrix as its dilate's, so a report judges it
on its own section and checks its space by the dilated integral norm
(`spaces.integral_norm`).  A report therefore holds one section plus a
ring of `ROW_BLOCK` + 2 anti-diagonals (0.035 sections at N = 512) and
rows of scratch: at N = 512 (one section is 4.02 MiB) one `full_report`
on a binomial pair peaks at 1.08 sections under tracemalloc, lam < 1 or
lam = 1.
"""

from __future__ import annotations

import math
import sys

import numpy as np
from numpy.lib.stride_tricks import as_strided

from .series import TruncatedSeries, common_order, compose_poly
from .spaces import Binomial, DomainError, Exponential, WeightSequence, kernel
from .symbols import SymbolPair

__all__ = [
    "build_matrix",
    "hermitian_deviation",
    "apply",
    "adjoint_on_kernel",
    "kernel_identity_residual",
    "kernel_tail_bound",
    "fock_log_bound",
    "finite_section_norm",
]


#: terms of a falling kernel tail summed at most by `kernel_tail_bound`
KERNEL_TAIL_TERMS = 100_000
#: rows of a section read at once by the O(N^2) checks after the fill
ROW_BLOCK = 16


def build_matrix(sp: SymbolPair, ws: WeightSequence) -> np.ndarray:
    """Assemble the section: column j is psi * phi^j, normalized, as a
    read-only (N+1) x (N+1) complex array, N the order that the symbols and
    the weights share (ValueError naming both when they differ).

    A family pair (``sp.phi_pole`` set) has phi = a0 + a1 z / (1 - q z), so
    phi (1 - q z) = a0 + d z with d = a1 - a0 q, and the columns
    P_j = psi phi^j obey P_{j+1} (1 - q z) = P_j (a0 + d z).  Reading off
    coefficient i gives E[i, j+1] = q E[i-1, j+1] + a0 E[i, j] + d E[i-1, j]
    for E[i, j] = [z^i] P_j, and with rho(j) = beta(j) / beta(j + 1) the
    same recurrence on the normalized M[i, j] = (beta(i) / beta(j)) E[i, j]:

        M[i, j+1] = (q M[i-1, j+1] + d rho(j) M[i-1, j]) (beta(i) / beta(i-1))
                    + a0 rho(j) M[i, j]

    from column 0 = psi beta (M[-1, .] = 0).  Entry (i, j+1) reads
    anti-diagonals i + j and i + j - 1 only, so the entries are formed one
    anti-diagonal at a time (`_anti_diagonals`), normalized as they are
    formed: an entry whose raw coefficient E leaves the double range is
    still formed when M is in range.  The walker yields them `ROW_BLOCK`
    anti-diagonals at a time, and each block is stored with one masked
    copy: entry (i, s - i) lies at flat offset s + i N of the section, so
    a strided view of it with rows N entries apart is indexed by row and
    anti-diagonal, and in it a block's entries in one row are consecutive
    (a band mask drops the slots outside the section).  Any other pair (phi known
    only as a series) takes column j + 1 as column j convolved with phi,
    truncated at order N, and the table is normalized in place,
    (x * beta(i)) / beta(j), once it is done.

    Either way every entry is computed from entries with smaller i and j in
    an order that does not depend on N, so the section at order N is
    bitwise the top-left block of the section at 2N.  An entry beyond the
    double range raises DomainError naming the first one.  Measured entry
    error against a 50-digit reference: at most 3.4e-16 at N = 40 on Hardy,
    Bergman, binomial, Fock and Dirichlet pairs.
    """
    n = common_order(symbols=sp.order, weights=ws.order)
    entries = np.empty((n + 1, n + 1), dtype=complex)
    with np.errstate(over="ignore", invalid="ignore"):  # refused by _finite_section
        if sp.phi_pole is None:
            phi = sp.phi.coeffs
            entries[:, 0] = sp.psi.coeffs
            for j in range(n):
                entries[:, j + 1] = np.convolve(entries[:, j], phi)[: n + 1]
            entries *= ws.beta[:, None]
            entries /= ws.beta[None, :]
        else:
            # by_diagonal[i, s] is entry (i, s - i) where 0 <= s - i <= n
            size = entries.itemsize
            by_diagonal = as_strided(entries, (n + 1, 2 * n + 1), (n * size, size))
            # band[n + i - s0, k]: entry (i, s0 + k - i) lies in the section
            d, k = np.arange(-n, ROW_BLOCK)[:, None], np.arange(ROW_BLOCK)
            band = (d <= k) & (k - d <= n)
            for s0, block in _anti_diagonals([sp], [ws.beta], n):
                width = len(block)
                lo, hi = max(0, s0 - n), min(n, s0 + width - 1)
                np.copyto(
                    by_diagonal[lo : hi + 1, s0 : s0 + width],
                    block[:, lo + 1 : hi + 2].T,
                    where=band[n + lo - s0 : n + hi + 1 - s0, :width],
                )
    return _finite_section(entries)


def _finite_section(entries: np.ndarray) -> np.ndarray:
    """The normalized table, made read-only; DomainError naming the first
    entry, in row-major order, that is not finite."""
    parts = entries.view(float)  # min and max are nan or inf at a non-finite entry
    if not (math.isfinite(parts.min()) and math.isfinite(parts.max())):
        i, j = divmod(int(np.argmin(np.isfinite(entries))), entries.shape[1])
        raise DomainError(f"section entry ({i}, {j}) is not finite: {entries[i, j]}")
    entries.setflags(write=False)
    return entries


def _anti_diagonals(pairs: list[SymbolPair], betas: list[np.ndarray], n: int):
    """Run the ratio recurrence of `build_matrix` for the normalized entries
    M[i, j], i, j <= n, of b family pairs side by side, pair c over the
    weights betas[c], one anti-diagonal s = i + j at a time, and yield each
    finished one.  It writes no section: each caller stores what it needs.

    The recurrence reads anti-diagonals s - 1 and s - 2 only, so a ring of
    `ROW_BLOCK` + 2 rows holds everything it needs: rows 0 and 1 hold
    anti-diagonals s0 - 2 and s0 - 1, rows 2.. the block s0.. being formed,
    and after each block its last two rows move to the front.  Slot
    b (i + 1) + c of a row holds pair c's M[i, s - i], and slots 0..b-1
    stay zero for M[-1, .].  The entries
    (i, s - i), i = lo..hi, of every pair are then one contiguous run, and
    so are their inputs: the same slots (left) and the slots b before (up)
    in the previous row, the slots b before (up-left) in the row before
    that.  q is tiled to match; beta(i) / beta(i - 1) is stored by row, with
    a 1 on row 0, whose inputs are the zero slots; a0 rho(j) and d rho(j)
    are stored by column, reversed, so the columns j = s - 1 - i of a run
    ascend too.  Each of the six ufuncs per anti-diagonal reads contiguous
    memory; they form ((q up + d rho up-left) beta(i) / beta(i - 1)) +
    a0 rho left, the order that fixes the section's bits.  Column 0 is
    psi(i) beta(i).  d = a1 - a0 q is formed in Python's complex arithmetic
    (numpy's may fuse the multiply-add and move its last bit).

    Yields (s0, block) once anti-diagonals s0..s0 + len(block) - 1 are
    done, `ROW_BLOCK` of them (fewer in the last block): block[k] is the
    ring row of s = s0 + k, whose slot b (i + 1) + c holds pair c's
    M[i, s - i] for max(0, s - n) <= i <= min(s, n).  Its other slots hold
    zeros or entries of earlier anti-diagonals; the block is valid until
    the next step.
    """
    b = len(pairs)
    beta = np.stack(betas, axis=1)  # row i holds each pair's beta(i)
    psi = (np.stack([sp.psi.coeffs for sp in pairs], axis=1) * beta).reshape(-1)
    up = np.vstack([np.ones(b), beta[1:] / beta[:-1]], dtype=complex).reshape(-1)
    coeffs = [(sp.phi_pole, sp.a0, sp.a1 - sp.a0 * sp.phi_pole) for sp in pairs]
    q, a0, d = np.array(coeffs, dtype=complex).T
    q = np.tile(q, n + 1)
    # slot b (n - 1 - j) + c holds pair c's a0 rho(j) and d rho(j)
    a0_rho, d_rho = ((x * (beta[:-1] / beta[1:]))[::-1].reshape(-1) for x in (a0, d))
    ring = np.zeros((ROW_BLOCK + 2, b * (n + 2)), dtype=complex)
    rows = list(ring)
    buf = np.empty(b * (n + 1), dtype=complex)
    multiply, add = np.multiply, np.add  # bound once: the loop is ufunc dispatch
    for s0 in range(0, 2 * n + 1, ROW_BLOCK):
        for r, s in enumerate(range(s0, min(s0 + ROW_BLOCK, 2 * n + 1)), 2):
            older, old, new = rows[r - 2], rows[r - 1], rows[r]
            lo, hi = (0, s - 1) if s <= n else (s - n, n)  # the rows with j >= 1
            first, stop = b * lo, b * (hi + 1)
            if stop > first:
                k, col = stop - first, b * (n - s + lo)
                a, t = new[first + b : stop + b], buf[:k]
                multiply(old[first:stop], q[:k], a)
                multiply(older[first:stop], d_rho[col : col + k], t)
                add(a, t, a)
                multiply(a, up[first:stop], a)
                multiply(old[first + b : stop + b], a0_rho[col : col + k], t)
                add(a, t, a)
            if s <= n:
                new[stop + b : stop + 2 * b] = psi[b * s : b * (s + 1)]  # M[s, 0]
        yield s0, ring[2 : r + 1]
        ring[:2] = ring[r - 1 : r + 1]


def hermitian_deviation(m: np.ndarray) -> tuple[float, tuple[int, int], tuple[float, ...]]:
    """max |M - M*|, an entry where it is attained, and the three moments.

    The deviation is zero iff the section is Hermitian.  The moments are
    self-adjointness restricted to the first three basis vectors,
    m_j = max_i |M[i,j] - conj(M[j,i])|: the first two vanish for any
    weight sequence once the symbols have the required closed-form shape;
    the third is the discriminating condition that forces the generating
    function's differential equation.

    |M - M*| is bitwise symmetric (negation is exact, addition commutes and
    the modulus ignores signs), so one maximum per row over the upper
    triangle decides everything.  It is formed `ROW_BLOCK` rows at a time,
    rows r.. from column r on, into two buffers that every block reuses
    (the difference and its modulus), so no second section is allocated.
    The deviation is the largest row maximum (NaN if any entry is NaN).  The
    first maximum in row-major order has i <= j, so it is the first maximum
    of the first maximal row (`np.argmax` ranks NaN first), that row
    formed once more in full.  The first block spans every column, so the
    first three row maxima are the moments.  A |M - M*| beyond the double
    range (entries near its top) raises DomainError naming that entry.
    """
    n = m.shape[0]
    peaks = np.empty(n)
    block = np.empty(min(ROW_BLOCK, n) * n, dtype=complex)
    modulus = np.empty(block.size)
    with np.errstate(over="ignore"):  # refused below
        for r in range(0, n, ROW_BLOCK):
            rows, width = min(ROW_BLOCK, n - r), n - r
            diff = np.conjugate(m[r:, r : r + rows].T, out=block[: rows * width].reshape(rows, width))
            np.subtract(m[r : r + rows, r:], diff, out=diff)
            moduli = np.abs(diff, out=modulus[: diff.size].reshape(diff.shape))
            moduli.max(axis=1, out=peaks[r : r + rows])
        i = int(np.argmax(peaks))
        j = int(np.argmax(np.abs(m[i] - np.conjugate(m[:, i]))))
    if peaks[i] == np.inf:
        raise DomainError(f"|M - M*| at entry {(i, j)} is beyond the double range")
    return float(peaks[i]), (i, j), tuple(float(x) for x in peaks[:3])


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
    ``m`` applied to the kernel in the normalized basis, M (K_w * beta),
    summed by blocks of `ROW_BLOCK` columns whose terms are scaled by a
    power of two (`_section_times`), so that no product of a normal entry
    with a term falls to a subnormal; never through BLAS.  The backward
    side conj(psi(w)) K_{phi(w)} is evaluated in closed form.
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
        forward = _section_times(m, kernel(w, ws).coeffs * ws.beta)
        # scaled by a power of two before squaring (bitwise the same, unless
        # entries near the top of the double range would overflow: Fock b = 0.01,
        # or subnormal ones underflow: c = 1e-300)
        diff = np.abs(forward - backward)
        e = math.frexp(float(np.max(diff)))[1]
        residual = float(np.ldexp(np.sqrt(np.sum(np.ldexp(diff, -e) ** 2)), e))
    if not math.isfinite(residual):
        raise DomainError("the kernel terms at w leave the double range")
    return residual


def _section_times(m: np.ndarray, x: np.ndarray) -> np.ndarray:
    """M x, summed by blocks of `ROW_BLOCK` columns, each block in block
    order: its terms scaled by an exact 2^-e, its partial products summed
    by `np.einsum`'s own loop, not BLAS gemv (so the bits do not depend on
    the BLAS library numpy links), and the sum scaled back by 2^e.

    e is the exponent of the block's largest |x_j| plus the bits of
    ROW_BLOCK, so a block's terms are below 1 / (2 ROW_BLOCK) and its
    partial sums stay below max |M| / 2: only a block whose own sum leaves
    the double range overflows.  The terms K_w(j) beta(j) fall like
    |w|^j, and unscaled their products with a section whose entries are
    normal doubles fall below the normal range (at N = 512, w = 0.3 + 0.2i,
    a tenth of the products on some binomial pairs, which slows the loop
    severalfold); scaled, a block's terms span only |w|^ROW_BLOCK.
    """
    starts = np.arange(0, x.size, ROW_BLOCK)
    exps = np.frexp(np.maximum.reduceat(np.abs(x), starts))[1] + ROW_BLOCK.bit_length()
    shifts = np.repeat(-exps, 2 * ROW_BLOCK)[: 2 * x.size]  # by real and imaginary part
    scaled = np.ldexp(x.view(float), shifts).view(complex)
    total, part = np.zeros_like(x), np.empty_like(x)
    for c, e in zip(starts.tolist(), exps.tolist()):
        np.einsum("ij,j->i", m[:, c : c + ROW_BLOCK], scaled[c : c + ROW_BLOCK], out=part)
        total += np.ldexp(part.view(float), e).view(complex)
    return total


def kernel_tail_bound(cls, w: complex, order: int) -> float:
    """log10 of an upper bound on sum_{j > N} |w|^(2j) / beta(j)^2 for a
    family space, the squared-norm mass of the kernel tail dropped by
    truncation (-inf at w = 0; inf when |w|^2 lam >= 1 - 8 eps, where the
    tail diverges or rounding could make a ratio reach 1).

    Both families' coefficient ratios are
    ratio(j) = lam + (ratio(0) - lam) / (j + 1), monotone with limit lam, so
    the terms, t_(j+1) / t_j = |w|^2 ratio(j), rise to at most one peak and
    then fall.  While they still rise at N + 1, |w|^2 ratio(N + 1) >= 1
    (less 8 eps: a falling case rounded up lands here, which is safe), no
    earlier term exceeds t_(N+1), so the tail is at least 1/(N + 2) of the
    whole series log k(|w|^2) = |w|^2/b^2 or -eta log1p(-lam |w|^2), which
    bounds it, raised by 2 eps times its size plus its growth |w|^2 (log k)'.
    Otherwise r = |w|^2 max(ratio(j), lam) < 1 bounds every ratio past j,
    the terms after t_j sum to at most t_j r / (1 - r), and the tail
    t_(N+1) (1 + s_(N+1) + s_(N+1) s_(N+2) + ...), s_j = |w|^2 ratio(j), is
    summed in doubles until that remainder is below 1e-30 of the sum, or
    for `KERNEL_TAIL_TERMS` terms, and the remainder added.  log t_(N+1) is
    summed from logs, so a mass beyond the double range has a finite log.
    Rounding: 2 eps per unit of the logs summed; 3 eps (K + 1) for K summed
    terms (five roundings make a term, three in the binomial ratio, and a
    sixth adds it); 2 eps r / (1 - r) of the remainder's share for 1 - r.
    """
    if not isinstance(cls, (Exponential, Binomial)):
        raise ValueError("tail bounds are available for family spaces only")
    eps = sys.float_info.epsilon
    w_sq = abs(complex(w)) ** 2
    if w_sq == 0.0:
        return -math.inf
    if w_sq * cls.lam >= 1.0 - 8.0 * eps:
        return math.inf
    if w_sq * cls.coefficient_ratio(order + 1) >= 1.0 - 8.0 * eps:
        if isinstance(cls, Exponential):
            log_k = w_sq / cls.b_sq
        else:
            log_k = -cls.eta * math.log1p(-cls.lam * w_sq)
        growth = w_sq * cls.coefficient_ratio(0) / (1.0 - w_sq * cls.lam)
        return (log_k + 2.0 * eps * (log_k + growth)) / math.log(10.0)
    # log t_(N+1) = log(|w|^(2(N+1)) khat(N+1)), khat(N+1) the product of the
    # ratios 0..N, and the size of the logs in it
    log_w_sq = math.log(w_sq)
    logs = [math.log(cls.coefficient_ratio(j)) for j in range(order + 1)]
    log_head = (order + 1) * log_w_sq + math.fsum(logs)
    log_size = (order + 1) * abs(log_w_sq) + math.fsum(map(abs, logs))
    term, total = 1.0, 0.0  # relative to t_(N+1)
    for k in range(1, KERNEL_TAIL_TERMS + 1):
        total += term
        ratio = cls.coefficient_ratio(order + k)
        r = w_sq * max(ratio, cls.lam)
        rest = term * r / (1.0 - r)
        if rest < 1e-30 * total:
            break
        term *= w_sq * ratio
    log_mass = log_head + math.log(total + rest)
    rounding = 3.0 * (k + 1) + 2.0 * r / (1.0 - r) * rest / (total + rest)
    slack = 2.0 * eps * (log_size + abs(log_mass)) + eps * rounding
    return (log_mass + slack) / math.log(10.0)


def fock_log_bound(sp: SymbolPair) -> float:
    """log of the Gaussian-space bound on the squared operator norm,
    log(c^2/a1^2) + sup_r g(r)/b^2, where g(r) = (1 - 1/a1^2) r^2 + 2|a0|(1 +
    1/|a1|) r + |a0|^2 is a downward parabola in r = |z - a0|.  Its vertex
    r* = |a0||a1|/(1 - |a1|) >= 0 gives the supremum g(r*) = 2|a0|^2/(1 - |a1|),
    so the bound is 2 log|c| - 2 log|a1| + 2|a0|^2/((1 - |a1|) b^2): finite
    where the bound itself overflows (small b, large c or small a1); -inf
    when c = 0."""
    if not isinstance(sp.cls, Exponential):
        raise ValueError("the Gaussian norm bound applies to exponential-family pairs")
    a1 = abs(sp.a1)
    if not (0.0 < a1 < 1.0):
        raise DomainError(f"the bound requires 0 < |a1| < 1 (got {a1})")
    log_c = math.log(abs(sp.c)) if sp.c != 0 else -math.inf
    return 2.0 * (log_c - math.log(a1)) + 2.0 * abs(sp.a0) ** 2 / ((1.0 - a1) * sp.cls.b_sq)


def finite_section_norm(m: np.ndarray) -> float:
    """Largest singular value of the section: a lower bound for the operator
    norm, nondecreasing in the truncation order."""
    return float(np.linalg.svd(m, compute_uv=False)[0])
