"""Memory contract: a report holds its one section and no other
(N+1)^2-sized array, below lam = 1 as at lam = 1.

Peaks are measured with tracemalloc, which numpy reports its data buffers
to, after one untraced warm-up call (first-use imports).  One section is
(N+1)^2 complex doubles.
"""

import cmath
import tracemalloc

import pytest

from wco import verify
from wco.cli import _sweep_cell
from wco.spaces import Binomial, family_weights


def sections_at_peak(fn, order):
    fn()
    tracemalloc.start()
    try:
        fn()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak / ((order + 1) ** 2 * 16)


@pytest.mark.parametrize(
    "lam, eta, a0",
    [(0.8, 1.5, cmath.rect(0.7, 1.0)), (1.0, 2.0, cmath.rect(0.6, 1.0))],
    ids=["lam<1 (dilated section)", "lam=1 (disk quadrature)"],
)
def test_full_report_holds_at_most_two_sections(lam, eta, a0):
    order = 512
    ws = family_weights(Binomial(lam, eta), order)
    report = verify.full_report(ws, a0, 0.1, 1.0)
    assert report.passed, report.to_json()
    assert sections_at_peak(lambda: verify.full_report(ws, a0, 0.1, 1.0), order) <= 2.15


def test_lam_lt1_report_holds_one_section():
    order = 512
    a0 = cmath.rect(0.7, 1.0)
    ws = family_weights(Binomial(0.8, 1.5), order)
    report = verify.full_report(ws, a0, 0.1, 1.0)
    assert report.passed, report.to_json()
    assert "quadrature-vs-series-norm" in {c.name for c in report.checks}
    assert sections_at_peak(lambda: verify.full_report(ws, a0, 0.1, 1.0), order) <= 1.2


def test_sweep_cell_holds_one_section():
    order = 384
    cls = Binomial(0.3, 1.5)
    cell = (0, cls, family_weights(cls, order), 0.3, 1.0, 0.5, 1.0)
    assert _sweep_cell(*cell)["pass"]
    assert sections_at_peak(lambda: _sweep_cell(*cell), order) <= 1.2
