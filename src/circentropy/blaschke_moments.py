"""Power-series arithmetic for the Blaschke quotient r = q*/q at the origin,
the moment sequence M_k = <r^k q, q>, and the weighted Schur contraction check.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import ZeroConstantTerm, ZeroOnBoundary
from .polycircle import (
    TAU_SEP,
    PolarDecomposition,
    as_coefficient_stack,
    as_coefficients,
    partial_energy_Al,
    unstacked,
    weighted_form_Sn,
)

CONTRACTION_TOL = 1e-12  # slack the contraction check allows below zero


def _fit(a: np.ndarray, size: int) -> np.ndarray:
    """The coefficients of degree < size along the last axis, zero-padded."""
    if a.shape[-1] >= size:
        return a[..., :size]
    out = np.zeros(a.shape[:-1] + (size,), dtype=complex)
    out[..., : a.shape[-1]] = a
    return out


@lru_cache(maxsize=128)
def _toeplitz_index(size: int) -> np.ndarray:
    """Index array [i, j] -> (size - 1) + i - j, read-only."""
    idx = np.arange(size)
    index = (size - 1) + idx[:, None] - idx
    index.setflags(write=False)
    return index


def _toeplitz(a, size: int) -> np.ndarray:
    """Lower-triangular Toeplitz matrices T[i, j] = a_{i-j}, one per row of a.

    T b is the product a b truncated through degree size - 1.
    """
    padded = np.zeros(a.shape[:-1] + (2 * size - 1,), dtype=complex)
    padded[..., size - 1 :] = _fit(a, size)
    # Row-major, unlike padded[..., index]: every row of T b then sums along
    # contiguous memory, in the same order whatever the stack size.
    return np.take(padded, _toeplitz_index(size), axis=-1)


def _apply(T: np.ndarray, b: np.ndarray) -> np.ndarray:
    """T b, row by row: an elementwise product summed along the last axis."""
    return (T * _fit(b, T.shape[-1])[..., None, :]).sum(axis=-1)


def series_multiply(a, b, order: int) -> np.ndarray:
    """Truncated product of two coefficient vectors through degree ``order``.

    Stacks of vectors multiply row by row.
    """
    a = as_coefficient_stack(a)
    b = as_coefficient_stack(b)
    return _apply(_toeplitz(a, order + 1), b)


def series_divide(num, den, order: int) -> np.ndarray:
    """Truncated Taylor coefficients of num/den through degree ``order``.

    Runs the division recurrence, one step per degree over all rows of a
    stack at once; requires den(0) != 0.  Rounding grows with the
    coefficients of 1/den, so a denominator whose inverse has bounded
    coefficients (h rather than q) keeps its digits.
    """
    num = as_coefficient_stack(num)
    den = as_coefficient_stack(den)
    if not den[..., 0].all():
        raise ZeroConstantTerm("series division needs a nonzero constant term")
    shape = np.broadcast_shapes(num.shape[:-1], den.shape[:-1]) + (order + 1,)
    out = np.zeros(shape, dtype=complex)
    out[...] = _fit(num, order + 1)
    dd = den.shape[-1] - 1
    # rev[..., dd - i] = den_i, so out_{k-m..k-1} pairs with den_m..den_1.
    rev = den[..., ::-1].copy()
    den0 = den[..., 0]
    for k in range(order + 1):
        m = min(k, dd)
        acc = out[..., k]
        if m >= 1:
            acc = acc - np.add.reduce(out[..., k - m : k] * rev[..., dd - m : dd], axis=-1)
        out[..., k] = acc / den0
    return out


@dataclass(frozen=True)
class MomentSequence:
    """The moments M_k = <r^k q, q> for k = 0..n-1.

    ``ratio_series_residual`` is max_j |(r q - q*)_j| over j = 0..n-1,
    relative to max |a_j|: r comes from the roots and q, q* from the
    coefficients, so it measures how well the two agree.  For a stack,
    ``values`` has one row per instance, and ``simple_zeros`` and
    ``ratio_series_residual`` one entry.
    """

    values: np.ndarray
    simple_zeros: bool
    ratio_series_residual: float

    def __post_init__(self):
        self.values.setflags(write=False)

    @property
    def degree(self) -> int:
        return self.values.shape[-1]

    def to_json_dict(self) -> dict:
        return {
            "degree": self.degree,
            "simple_zeros": self.simple_zeros,
            "ratio_series_residual": self.ratio_series_residual,
            "moments": [[float(v.real), float(v.imag)] for v in self.values],
        }


def moments(d: PolarDecomposition) -> MomentSequence:
    """Moment sequence of the polar pair, or of a stack of them.

    Every r^k q comes from r^{k-1} q by one product with the lower-triangular
    Toeplitz matrix of r, for all rows of a stack at once.

    The Blaschke quotient is r = q*/q = 1/h - 1, with h = q/p the series of
    the roots that the Jensen term uses (``CirclePoly.h_series``); 1/h is
    the second row of the one division by h that the Jensen term shares
    (``CirclePoly.h_quotients``).  1/h = 1 + r has bounded coefficients,
    so the division keeps its digits when zeros cluster, where dividing q*
    by q loses them.  h_0 = 1 exactly, so r_0 = 0 exactly.  Each M_k pairs
    the Taylor coefficients of r^k q of degrees 0..n-1 against those of q,
    so r is expanded only through degree n - 1.  The first product r q
    also gives the ``ratio_series_residual`` against q*.  Inputs without
    simple zeros are accepted (q(0) != 0 keeps the series well defined) but
    the sequence then sits outside the moment identity's hypotheses;
    consumers should consult ``simple_zeros``.
    """
    n = d.degree
    p = d.parent
    q = d.q
    r = p.h_quotients[..., 1, :].copy()
    r[..., 0] = 0.0
    # One Toeplitz matrix of r serves every product r^k q.
    t_r = _toeplitz(r, n)
    rq = _apply(t_r, q)
    resid = (np.abs(rq - d.qstar[..., :n]).max(axis=-1)
             / np.abs(p.coefficients).max(axis=-1))
    conj_q = np.conj(q)
    vals = np.empty(q.shape, dtype=complex)
    vals[..., 0] = np.add.reduce(conj_q * q, axis=-1).real  # <q, q> is real
    # Each step is _apply(t_r, f) and each pairing a sum, as direct ufunc
    # calls: at a few rows a step costs its numpy calls, not its arithmetic.
    f = q
    for k in range(1, n):
        f = rq if k == 1 else np.add.reduce(t_r * f[..., None, :], axis=-1)
        vals[..., k] = np.add.reduce(conj_q * f, axis=-1)
    return MomentSequence(vals, d.simple_zeros, unstacked(resid))


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


def schur_contraction_check(phi_zeros, phi_gamma, f, n: int) -> ContractionReport:
    """Check S_n(phi f) <= S_n(f) and A_l(phi f) <= A_l(f) for l <= n-1.

    ``phi`` is the finite Blaschke product with the given interior zeros and
    unimodular constant; ``f`` must have vanishing constant coefficient.
    Slacks are reported with pass/fail at ``CONTRACTION_TOL``.
    """
    f = as_coefficients(f)
    if f[0] != 0:
        raise ValueError("f must vanish at the origin (f_0 = 0)")
    # S_n and A_l read degrees <= n - 1 only, and a truncated product's
    # coefficients of degree j depend on its inputs through degree j alone.
    order = n - 1
    phi = blaschke_series(phi_zeros, phi_gamma, order)
    phi_f = series_multiply(phi, f, order)
    s_f = weighted_form_Sn(f, n)
    s_pf = weighted_form_Sn(phi_f, n)
    part_f = np.array([partial_energy_Al(f, l) for l in range(n)])
    part_pf = np.array([partial_energy_Al(phi_f, l) for l in range(n)])
    s_slack = s_f - s_pf
    min_partial = float(np.min(part_f - part_pf))
    passed = s_slack >= -CONTRACTION_TOL and min_partial >= -CONTRACTION_TOL
    return ContractionReport(
        n, s_f, s_pf, part_f, part_pf, float(s_slack), min_partial, passed
    )


