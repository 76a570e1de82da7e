"""Power-series arithmetic for the Blaschke quotient r = q*/q at the origin,
the moment sequence M_k = <r^k q, q>, and the weighted Schur contraction check.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ZeroConstantTerm, ZeroOnBoundary
from .polycircle import (
    TAU_SEP,
    PolarDecomposition,
    as_coefficients,
    eval_poly,
    partial_energy_Al,
    weighted_form_Sn,
)

TAU_SERIES = 1e-11   # residual tolerance for truncated series identities
SERIES_GUARD = 8     # orders the contraction check keeps beyond degree n - 1


def series_inverse(q, order: int) -> np.ndarray:
    """Taylor coefficients of 1/q through degree ``order``.

    Requires q(0) != 0; the convolution of the output with q equals
    (1, 0, ..., 0) through degree ``order`` up to rounding.
    """
    q = as_coefficients(q)
    if q[0] == 0:
        raise ZeroConstantTerm("series inversion needs a nonzero constant term")
    inv = np.zeros(order + 1, dtype=complex)
    inv[0] = 1.0 / q[0]
    dq = q.size - 1
    for k in range(1, order + 1):
        m = min(k, dq)
        s = np.dot(q[1 : m + 1], inv[k - m : k][::-1]) if m >= 1 else 0.0
        inv[k] = -s / q[0]
    return inv


def series_multiply(a, b, order: int) -> np.ndarray:
    """Truncated product of two coefficient vectors through degree ``order``."""
    a = as_coefficients(a)[: order + 1]
    b = as_coefficients(b)[: order + 1]
    out = np.convolve(a, b)[: order + 1]
    if out.size < order + 1:
        out = np.pad(out, (0, order + 1 - out.size))
    return out


def series_divide(num, den, order: int) -> np.ndarray:
    """Truncated Taylor coefficients of num/den through degree ``order``.

    Algebraically identical to ``series_multiply(num, series_inverse(den))``
    but numerically stabler when den has roots close to the unit circle: the
    division recurrence never materializes the large intermediate
    coefficients of 1/den.
    """
    num = as_coefficients(num)
    den = as_coefficients(den)
    if den[0] == 0:
        raise ZeroConstantTerm("series division needs a nonzero constant term")
    out = np.zeros(order + 1, dtype=complex)
    dd = den.size - 1
    for k in range(order + 1):
        acc = num[k] if k < num.size else 0.0
        m = min(k, dd)
        if m >= 1:
            acc = acc - np.dot(den[1 : m + 1], out[k - m : k][::-1])
        out[k] = acc / den[0]
    return out


@dataclass(frozen=True)
class RatioSeries:
    """Truncated Taylor series of r = q*/q at the origin.

    r_0 = 0 and the product r * q reproduces q* through the truncation order.
    """

    coefficients: np.ndarray
    parent: PolarDecomposition
    order: int

    def __post_init__(self):
        self.coefficients.setflags(write=False)


def blaschke_quotient(d: PolarDecomposition, order: int | None = None) -> RatioSeries:
    """Series of the Blaschke quotient r = q*/q, default order 4n."""
    n = d.degree
    if order is None:
        order = 4 * n
    r = series_divide(d.qstar, d.q, order)
    return RatioSeries(r, d, order)


@dataclass(frozen=True)
class MomentSequence:
    """The moments M_k = <r^k q, q> for k = 0..n-1, plus over-range values.

    ``values[k]`` holds M_k; ``over_range[i]`` holds M_{n+i}, which vanishes
    in exact arithmetic because r^k q has a zero of order >= k at the origin.
    ``truncation_order`` is the degree through which r was expanded.
    """

    values: np.ndarray
    over_range: np.ndarray
    degree: int
    simple_zeros: bool
    truncation_order: int

    def __post_init__(self):
        self.values.setflags(write=False)
        self.over_range.setflags(write=False)

    def to_json_dict(self) -> dict:
        def pairs(arr):
            return [[float(v.real), float(v.imag)] for v in arr]

        return {
            "degree": self.degree,
            "simple_zeros": self.simple_zeros,
            "truncation_order": self.truncation_order,
            "moments": pairs(self.values),
            "over_range": pairs(self.over_range),
        }


def moments(d: PolarDecomposition, extra: int = 6) -> MomentSequence:
    """Moment sequence of the polar pair, by iterated truncated convolution.

    Each M_k pairs the Taylor coefficients of r^k q of degrees 0..n-1 against
    those of q, so r is expanded only through degree n - 1: the division
    recurrence is causal, and a longer expansion gives the same r_0..r_{n-1}.
    ``extra`` additional over-range moments M_n..M_{n+extra-1} are reported
    for the vanishing check.  They are exactly (signed) zero, not merely
    small: r_0 = 0 exactly, so each product with r shifts the lowest nonzero
    coefficient up by one, and r^k q truncated at degree n - 1 is all zeros
    for k >= n.  A check on them can therefore never fail.  Inputs without
    simple zeros are accepted (q(0) != 0 keeps the series well defined) but
    the sequence then sits outside the moment identity's hypotheses;
    consumers should consult ``simple_zeros``.
    """
    n = d.degree
    order = n - 1
    r = blaschke_quotient(d, order).coefficients
    q = np.zeros(n, dtype=complex)
    q[: d.q.size] = d.q
    count = n + max(extra, 0)
    vals = np.zeros(count, dtype=complex)
    f = q.copy()
    vals[0] = np.vdot(q, f)
    for k in range(1, count):
        f = series_multiply(r, f, n - 1)
        vals[k] = np.vdot(q, f)
    return MomentSequence(
        vals[:n], vals[n:], n, d.simple_zeros, order
    )


def moments_by_quadrature(d: PolarDecomposition, count: int, nodes: int = 1 << 14) -> np.ndarray:
    """Trapezoidal quadrature of |q|^2 r^k on the circle for k = 0..count-1.

    Evaluates r as the pointwise rational quotient q*/q; intended as the
    independent cross-check of the series route for simple-zero inputs.
    """
    t = np.arange(nodes) * (2 * np.pi / nodes)
    z = np.exp(1j * t)
    qv = eval_poly(d.q, z)
    rv = eval_poly(d.qstar, z) / qv
    w = np.abs(qv) ** 2
    out = np.zeros(count, dtype=complex)
    acc = np.ones_like(z)
    for k in range(count):
        out[k] = np.mean(w * acc)
        acc = acc * rv
    return out


def blaschke_series(zeros, gamma, order: int) -> np.ndarray:
    """Taylor coefficients of a finite Blaschke product through ``order``.

    The product of Moebius factors (z - alpha)/(1 - conj(alpha) z) over the
    given zeros, times the unimodular constant ``gamma``.  Every zero must lie
    strictly inside the unit disk.
    """
    if abs(abs(complex(gamma)) - 1.0) > 1e-12:
        raise ValueError("the Blaschke constant must be unimodular")
    series = np.zeros(order + 1, dtype=complex)
    series[0] = gamma
    for alpha in np.asarray(zeros, dtype=complex):
        if abs(alpha) >= 1.0 - TAU_SEP:
            raise ZeroOnBoundary(
                f"Blaschke zero with |alpha| = {abs(alpha):.12f} is not interior"
            )
        j = np.arange(order + 1)
        factor = np.conj(alpha) ** np.maximum(j - 1, 0) * (1.0 - abs(alpha) ** 2)
        factor[0] = -alpha
        series = series_multiply(series, factor, order)
    return series


@dataclass(frozen=True)
class ContractionReport:
    """Outcome of the weighted Schur-contraction check for one (phi, f, n)."""

    n: int
    s_n_f: float
    s_n_phi_f: float
    partial_f: np.ndarray
    partial_phi_f: np.ndarray
    s_n_slack: float
    min_partial_slack: float
    passed: bool


def schur_contraction_check(
    phi_zeros, phi_gamma, f, n: int, slack_tol: float = 1e-12, guard: int = SERIES_GUARD
) -> ContractionReport:
    """Check S_n(phi f) <= S_n(f) and A_l(phi f) <= A_l(f) for l <= n-1.

    ``phi`` is the finite Blaschke product with the given interior zeros and
    unimodular constant; ``f`` must have vanishing constant coefficient.
    Slacks are reported with pass/fail at ``slack_tol``.
    """
    f = as_coefficients(f)
    if f[0] != 0:
        raise ValueError("f must vanish at the origin (f_0 = 0)")
    order = n - 1 + guard
    phi = blaschke_series(phi_zeros, phi_gamma, order)
    phi_f = series_multiply(phi, f, order)
    s_f = weighted_form_Sn(f, n)
    s_pf = weighted_form_Sn(phi_f, n)
    part_f = np.array([partial_energy_Al(f, l) for l in range(n)])
    part_pf = np.array([partial_energy_Al(phi_f, l) for l in range(n)])
    s_slack = s_f - s_pf
    min_partial = float(np.min(part_f - part_pf))
    passed = s_slack >= -slack_tol and min_partial >= -slack_tol
    return ContractionReport(
        n, s_f, s_pf, part_f, part_pf, float(s_slack), min_partial, passed
    )


