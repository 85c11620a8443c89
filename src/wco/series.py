"""Truncated power-series arithmetic over complex coefficients.

A :class:`TruncatedSeries` of order ``N`` stores the Maclaurin coefficients
``0..N`` of an analytic function.  Multiplication and integer powers are
*exact through order N*: coefficient ``j`` of a product depends only on
coefficients ``0..j`` of the factors, so the stored entries equal the true
product coefficients whenever the inputs are exact.  Differentiation loses
the last order, so consumers that need second derivatives exact at order
``N`` should construct their inputs at order ``N + 2``.

All values are immutable; every operation returns a fresh series.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import Sequence

import numpy as np

__all__ = [
    "OrderMismatchError",
    "common_order",
    "TruncatedSeries",
    "polynomial",
    "zero",
    "one",
    "monomial",
    "compose_poly",
    "exp_series",
    "binomial_series",
    "is_json_number",
    "json_order",
    "require_finite",
    "series_from_json",
]


class OrderMismatchError(ValueError):
    """Operands of series arithmetic have different truncation orders."""


def common_order(**orders: int) -> int:
    """The truncation order that the named inputs share; OrderMismatchError
    naming each input's order when they differ."""
    first, *rest = orders.values()
    if any(order != first for order in rest):
        named = ", ".join(f"{name} {order}" for name, order in orders.items())
        raise OrderMismatchError(f"orders differ: {named}")
    return first


def _as_coeffs(values) -> np.ndarray:
    c = np.array(values, dtype=complex)
    if c.ndim != 1 or c.size == 0:
        raise ValueError("coefficients must be a nonempty one-dimensional sequence")
    c.setflags(write=False)
    return c


@dataclass(frozen=True, eq=False)
class TruncatedSeries:
    """Degree-N complex polynomial standing for Maclaurin coefficients 0..N."""

    coeffs: np.ndarray

    def __post_init__(self):
        c = _as_coeffs(self.coeffs)
        object.__setattr__(self, "coeffs", c)

    @property
    def order(self) -> int:
        return self.coeffs.size - 1

    # -- ring operations ----------------------------------------------------

    def __add__(self, other):
        if isinstance(other, TruncatedSeries):
            common_order(left=self.order, right=other.order)
            return TruncatedSeries(self.coeffs + other.coeffs)
        c = self.coeffs.copy()
        c[0] += other
        return TruncatedSeries(c)

    __radd__ = __add__

    def __neg__(self):
        return TruncatedSeries(-self.coeffs)

    def __sub__(self, other):
        return self + (-other if isinstance(other, TruncatedSeries) else -complex(other))

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if not isinstance(other, TruncatedSeries):
            return TruncatedSeries(self.coeffs * complex(other))
        common_order(left=self.order, right=other.order)
        a, b = self.coeffs, other.coeffs
        # Canonical operand order makes f*g and g*f bitwise identical
        # (np.convolve is not symmetric in its rounding).
        if a.tobytes() > b.tobytes():
            a, b = b, a
        prod = np.convolve(a, b)[: self.order + 1]
        return TruncatedSeries(prod)

    __rmul__ = __mul__

    def __pow__(self, j: int):
        """Integer power by repeated multiplication; ``f ** 0`` is 1."""
        if not isinstance(j, (int, np.integer)) or j < 0:
            raise ValueError("series powers must use non-negative integer exponents")
        out = one(self.order)
        for _ in range(int(j)):
            out = out * self
        return out

    def __truediv__(self, other):
        """Series division; the divisor must have a nonzero constant term."""
        if not isinstance(other, TruncatedSeries):
            return TruncatedSeries(self.coeffs / complex(other))
        common_order(left=self.order, right=other.order)
        if other.coeffs[0] == 0:
            raise ZeroDivisionError("series division requires a nonzero constant term")
        n = self.order + 1
        num, den = self.coeffs, other.coeffs
        q = np.zeros(n, dtype=complex)
        q[0] = num[0] / den[0]
        for i in range(1, n):
            q[i] = (num[i] - np.dot(den[1 : i + 1], q[i - 1 :: -1])) / den[0]
        return TruncatedSeries(q)

    # -- calculus -----------------------------------------------------------

    def derivative(self) -> "TruncatedSeries":
        """Termwise derivative; the last entry is zero."""
        n = self.order
        d = np.zeros(n + 1, dtype=complex)
        d[:n] = self.coeffs[1:] * np.arange(1, n + 1)
        return TruncatedSeries(d)

    def z_times_derivative(self) -> "TruncatedSeries":
        """The series z*f'(z), with coefficients j*f(j); exact wherever f is."""
        return TruncatedSeries(self.coeffs * np.arange(self.order + 1))

    def __call__(self, z):
        """Horner evaluation of the truncation at scalar or array ``z``.

        The result approximates the underlying function only within its
        radius of convergence; the error is the dropped tail.
        """
        z = np.asarray(z, dtype=complex)
        vals = np.zeros_like(z)
        for c in self.coeffs[::-1]:
            vals = vals * z + c
        return complex(vals) if vals.ndim == 0 else vals

    def truncated(self, order: int) -> "TruncatedSeries":
        """Drop (or zero-pad) to the requested order."""
        if order < self.order:
            return TruncatedSeries(self.coeffs[: order + 1])
        c = np.zeros(order + 1, dtype=complex)
        c[: self.order + 1] = self.coeffs
        return TruncatedSeries(c)

    def __repr__(self):
        head = np.array2string(self.coeffs[:4], precision=6, separator=", ")
        return f"TruncatedSeries(order={self.order}, coeffs={head}...)"


# -- constructors -----------------------------------------------------------


def polynomial(coeffs: Sequence[complex], order: int | None = None) -> TruncatedSeries:
    """Series from low-to-high coefficients, zero-padded to ``order``."""
    c = np.asarray(coeffs, dtype=complex)
    n = c.size - 1 if order is None else order
    if c.size - 1 > n:
        raise ValueError(f"{c.size - 1} coefficients exceed requested order {n}")
    out = np.zeros(n + 1, dtype=complex)
    out[: c.size] = c
    return TruncatedSeries(out)


def zero(order: int) -> TruncatedSeries:
    return TruncatedSeries(np.zeros(order + 1, dtype=complex))


def one(order: int) -> TruncatedSeries:
    c = np.zeros(order + 1, dtype=complex)
    c[0] = 1.0
    return TruncatedSeries(c)


def monomial(degree: int, order: int) -> TruncatedSeries:
    """The monomial z**degree at the given truncation order."""
    if degree > order:
        raise ValueError(f"degree {degree} exceeds order {order}")
    c = np.zeros(order + 1, dtype=complex)
    c[degree] = 1.0
    return TruncatedSeries(c)


def compose_poly(f: TruncatedSeries, g: TruncatedSeries) -> TruncatedSeries:
    """Composition f(g(z)) with f treated as an exact polynomial.

    Computes sum_j f(j) * g**j truncated at the common order.  Exact when f
    is a genuine polynomial of its stated degree; if f is the truncation of
    a longer series the dropped tail contaminates every output coefficient.
    """
    common_order(f=f.order, g=g.order)
    out = zero(f.order)
    power = one(f.order)
    for j in range(f.order + 1):
        if f.coeffs[j] != 0:
            out = out + f.coeffs[j] * power
        if j < f.order:
            power = power * g
    return out


def exp_series(a: complex, order: int) -> TruncatedSeries:
    """exp(a*z) truncated: coefficient j is a**j / j! (stable recurrence)."""
    c = np.empty(order + 1, dtype=complex)
    c[0] = 1.0
    for j in range(order):
        c[j + 1] = c[j] * a / (j + 1)
    return TruncatedSeries(c)


def binomial_series(lam: complex, eta: complex, order: int) -> TruncatedSeries:
    """(1 - lam*z)**(-eta) truncated.

    Coefficient j is lam**j * prod_{m<j}(eta + m) / j!, computed by the
    recurrence c_{j+1} = c_j * lam * (eta + j) / (j + 1), which stays in
    range for orders in the hundreds where factorial ratios would overflow.
    """
    c = np.empty(order + 1, dtype=complex)
    c[0] = 1.0
    for j in range(order):
        c[j + 1] = c[j] * lam * (eta + j) / (j + 1)
    return TruncatedSeries(c)


# -- JSON wire format ---------------------------------------------------------


def is_json_number(value) -> bool:
    """A number `json.load` returned that converts to a double: a float, or
    an int inside the double range (a bool is neither)."""
    return type(value) is float or (type(value) is int and abs(value) <= sys.float_info.max)


def json_order(obj, what: str) -> int:
    """The "order" key of a JSON object; ValueError names what is wrong."""
    if not isinstance(obj, dict) or "order" not in obj:
        raise ValueError(f'{what} must be a JSON object with an "order" key')
    if type(obj["order"]) is not int or obj["order"] < 0:
        raise ValueError(f'{what} key "order" must be an integer >= 0 (got {obj["order"]!r})')
    return obj["order"]


def require_finite(value, key: str, what: str) -> None:
    """Reject a NaN or infinite number (which `json.load` accepts as NaN,
    Infinity or 1e400) anywhere in a JSON value, naming its key
    (``coeffs[0][1]``, ``grid.a0_mod[1]``)."""
    if isinstance(value, dict):
        for name, item in value.items():
            require_finite(item, f"{key}.{name}", what)
    elif isinstance(value, list):
        for idx, item in enumerate(value):
            require_finite(item, f"{key}[{idx}]", what)
    elif isinstance(value, float) and not math.isfinite(value):
        raise ValueError(f"{what} value {key} is not finite ({value})")


def series_from_json(obj) -> TruncatedSeries:
    """Series from the JSON shape {"order": N, "coeffs": [[re, im], ...]}."""
    order = json_order(obj, "series file")
    pairs = obj.get("coeffs")
    if not isinstance(pairs, list) or not all(
        isinstance(p, list) and len(p) == 2 and all(map(is_json_number, p)) for p in pairs
    ):
        raise ValueError('series file key "coeffs" must be a list of [re, im] number pairs')
    require_finite(pairs, "coeffs", "series file")
    if len(pairs) != order + 1:
        raise ValueError("coefficient count does not match the declared order")
    return TruncatedSeries(np.asarray([complex(re, im) for re, im in pairs], dtype=complex))
