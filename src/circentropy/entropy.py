"""Entropy functionals on circle polynomials and the inequality checks.

Assembles, for one polynomial with all zeros on the unit circle: the squared
norm N, the entropy E = int |p|^2 log|p|^2 dm, its split into the Jensen term
int |p|^2 log|q|^2 dm and the polar quotient functional, the remainder sum,
every lower bound with its gap, the moment-formula cross values, and the
equality-case classification against the binomial family c(omega + z^n).
``verify_stack`` decides every check against the one tolerance table below,
for a stack of polynomials of one degree; ``verify_main`` is its stack of
one, and ``verify_columns`` gives a stack's values by field, without the
report objects.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .blaschke_moments import MomentSequence, moments
from .errors import RootsOffCircle
from .log_integrals import circle_quadrature, ratio_functional
from .polycircle import (
    TAU_EXPAND,
    TAU_UNIMOD,
    CirclePoly,
    gamma_remainder,
    normalize_self_inversive,
    parseval_norm,
    polar_factor,
    row_blocks,
    stack,
    unstacked,
)

TAU_EQ = 1e-8        # relative coefficient tolerance for equality classification
# The route of each log integral in a report: one dict, shared by every row.
_ROUTES = {"entropy": "spectral", "jensen": "spectral"}

# The tolerance table: every check ``verify_main`` decides reads it.  "x N"
# entries scale with the squared norm N, "x max|a_j|" with the largest
# coefficient.  Under p -> c p every gap, Gamma and M_k scale by |c|^2, as
# N does.
GAP_TOL = 1e-9                 # x N: every inequality gap >= -GAP_TOL N
MOMENT_POLAR_TOL = 1e-8        # x N: polar term against its moment formula
MOMENT_NORM_TOL = 1e-9         # x N: N = 2M_0 + 2 Re M_1, and M_1 = Gamma
RATIO_SERIES_TOL = TAU_EXPAND  # x max|a_j|: r q = q* through degree n - 1
MOMENT_BOUND_TOL = 1e-9        # x N: |M_k| <= Gamma + tol, 2 <= k <= n-1

# A report's status, in the order in which later checks override earlier ones.
_STATUSES = np.array(["ok", "violation:inequality", "violation:moment_identity",
                      "violation:ratio_series", "violation:moment_bound"], dtype=object)


def h_fourier(k: int) -> Fraction:
    """Exact Fourier coefficient of |1+w|^2 log|1+w|^2 on the circle.

    Values: 2 at k = 0, 3/2 at |k| = 1, and 2(-1)^k / (k(k^2-1)) for
    |k| >= 2; the symmetric extension follows from h being real-valued.
    """
    k = abs(int(k))
    if k == 0:
        return Fraction(2)
    if k == 1:
        return Fraction(3, 2)
    return Fraction(2 * (-1) ** k, k * (k * k - 1))


def h_values(t) -> np.ndarray:
    """Pointwise h(e^{it}) = |1+e^{it}|^2 log|1+e^{it}|^2, with 0 log 0 = 0."""
    t = np.asarray(t, dtype=float)
    x = 2.0 + 2.0 * np.cos(t)
    with np.errstate(divide="ignore", invalid="ignore"):
        out = x * np.log(x)
    return np.where(x > 0, out, 0.0)


def h_fourier_quadrature(k: int) -> float:
    """Quadrature cross-check of the k-th Fourier coefficient of h."""

    def integrand(t):
        return h_values(t) * np.cos(k * t)

    return circle_quadrature(integrand, singular_angles=[np.pi])


def telescoping_sums(max_n: int):
    """The exact sums sum_{k=2}^{n-1} 1/(k(k^2-1)) for n = 2..max_n, in turn.

    Yields (n, sum) pairs, one Fraction addition per step.
    """
    total = Fraction(0)
    for n in range(2, max_n + 1):
        yield n, total
        total += Fraction(1, n * (n * n - 1))


def telescoping_closed_form(n: int) -> Fraction:
    """The closed form 1/4 - 1/(2n(n-1)) of the telescoping sum."""
    if n < 2:
        raise ValueError("closed form needs n >= 2")
    return Fraction(1, 4) - Fraction(1, 2 * n * (n - 1))


@lru_cache(maxsize=128)
def _moment_weights(n: int) -> np.ndarray:
    """The weights 2, 3, 4 (-1)^k / (k(k^2-1)) for k < n, read-only."""
    k = np.arange(n, dtype=float)
    weights = np.empty(n)
    weights[:2] = (2.0, 3.0)[:n]
    weights[2:] = 4.0 * ((-1.0) ** k[2:] / (k[2:] * (k[2:] * k[2:] - 1.0)))
    weights.setflags(write=False)
    return weights


def polar_term_via_moments(seq: MomentSequence):
    """Moment-formula value 2M_0 + 3 Re M_1 + 4 sum_{k>=2} w_k Re M_k.

    The weights are (-1)^k / (k(k^2-1)); for n = 1 this reduces to 2 M_0.
    Outside the simple-zero case the value is advisory only (consult the
    sequence's ``simple_zeros`` flag).  One value per row of a stack.
    """
    return unstacked((_moment_weights(seq.degree) * seq.values.real).sum(axis=-1))


def norm_via_moments(seq: MomentSequence):
    """Moment identity for the squared norm: N = 2 M_0 + 2 Re M_1, per row."""
    return unstacked(2.0 * seq.values[..., :2].real.sum(axis=-1))


@dataclass(frozen=True)
class EntropyReport:
    """All functionals, bounds, gaps, checks and classifications for one polynomial.

    The moment residuals are ``None`` where their check does not apply:
    ``moment_polar_resid`` and ``moment_norm_resid`` without simple zeros,
    ``moment_bound_slack_min`` for n <= 2.  ``status`` is ``"ok"`` or
    ``"violation:<check>"`` for the failed check that comes last in the
    order inequality, moment_identity, ratio_series, moment_bound.
    """

    degree: int
    simple_zeros: bool
    norm: float
    entropy: float
    jensen_term: float
    polar_term: float
    gamma: float
    remainder: float
    main_bound: float
    strengthened_bound: float
    jensen_bound: float
    polar_bound: float
    main_gap: float
    strengthened_gap: float
    jensen_gap: float
    polar_gap: float
    moment_polar_term: float | None
    moment_norm: float | None
    moment_values_advisory: bool
    extremal: bool
    equality_margin: float
    routes: dict
    inequalities_ok: bool
    gap_tolerance: float
    moment_polar_resid: float | None
    moment_norm_resid: float | None
    ratio_series_resid: float
    moment_bound_slack_min: float | None
    status: str

    def to_dict(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self)}


def _classify_extremal(coeffs: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Equality-case test per row: interior coefficients negligible, |a_0|=|a_n|."""
    ends = np.abs(coeffs[..., ::n])  # a_0 and a_n
    edge = ends.max(axis=-1)
    if n >= 2:
        margin = np.abs(coeffs[..., 1:n]).max(axis=-1) / edge
    else:
        margin = np.zeros(edge.shape)
    balanced = np.abs(ends[..., 0] - ends[..., 1]) < TAU_EQ * edge
    return (margin < TAU_EQ) & balanced, margin


def verify_main(p: CirclePoly) -> EntropyReport:
    """Full entropy report for one circle polynomial: ``verify_stack(stack([p]))[0]``."""
    return verify_stack(stack([p]))[0]


def verify_stack(p: CirclePoly) -> list[EntropyReport]:
    """Full entropy reports for a stack of circle polynomials, and their verdicts.

    Per row: normalizes the input self-inversive, computes every
    functional, evaluates the four lower bounds (Jensen, polar, main,
    strengthened) with their gaps, attaches the moment-formula values
    (advisory outside the simple-zero case), classifies the equality case,
    and decides every check against the tolerance table: the gaps always,
    the moment identities, the series identity r q = q* and the bound
    |M_k| <= Gamma for simple zeros.

    ``p`` is a stacked CirclePoly (``stack``); its ``verify_columns``
    become one report per row, in row order.
    """
    # The columns are in field order, so a row is the report's arguments.
    return [EntropyReport(*row) for row in zip(*verify_columns(p).values())]


def verify_columns(p: CirclePoly) -> dict[str, list]:
    """The report fields of a stack of one degree, one column per field.

    These are ``verify_stack``'s values without a report object per row.
    Keys are the ``EntropyReport`` field names in field order; each value
    is a list of Python scalars, one per row, in row order.  The stack is
    computed in the blocks of ``row_blocks``.  Every
    reduction runs along a row, so a row's values do not depend on the
    stack that computed them.
    """
    columns: dict[str, list] = {f.name: [] for f in fields(EntropyReport)}
    for block in row_blocks(p.coefficients.shape[0], p.degree):
        for name, values in _verify_block(p[block]).items():
            columns[name] += values
    return columns


def _verify_block(p: CirclePoly) -> dict[str, list]:
    """``verify_columns`` on one block of polynomials of a common degree."""
    if (np.abs(np.abs(p.roots) - 1.0) > TAU_UNIMOD).any():
        raise RootsOffCircle("verify_main requires all zeros on the unit circle")
    ps = normalize_self_inversive(p)
    n = ps.degree
    d = polar_factor(ps)

    norm = parseval_norm(ps)
    gamma = gamma_remainder(ps)
    rf = ratio_functional(ps)
    jensen_term = rf.jensen_integral
    entropy = rf.entropy_integral
    polar_term = rf.value

    remainder = 2.0 * gamma / (n * (n - 1)) if n >= 2 else np.zeros(norm.shape)
    log_half_norm = np.log(norm / 2.0)
    main_bound = norm * (1.0 + log_half_norm)
    jensen_bound = norm * log_half_norm
    strengthened_bound = main_bound + remainder
    polar_bound = norm + remainder

    seq = moments(d)
    moment_polar = polar_term_via_moments(seq)
    moment_norm_val = norm_via_moments(seq)

    extremal, margin = _classify_extremal(ps.coefficients, n)
    gaps = {
        "main": entropy - main_bound,
        "strengthened": entropy - strengthened_bound,
        "jensen": jensen_term - jensen_bound,
        "polar": polar_term - polar_bound,
    }
    gap_tol = GAP_TOL * norm
    gap_floor = -gap_tol
    ok = ((gaps["main"] >= gap_floor) & (gaps["strengthened"] >= gap_floor)
          & (gaps["jensen"] >= gap_floor) & (gaps["polar"] >= gap_floor))

    # M_1 = Gamma exactly (Parseval), so k = 1 is checked as an identity;
    # the bound |M_k| <= Gamma has room to spare only for k >= 2, and for
    # n <= 2 there is no such k.  A later check's verdict overrides an
    # earlier one's.
    simple = d.simple_zeros
    polar_resid = np.abs(polar_term - moment_polar)
    norm_resid = np.abs(norm - moment_norm_val)
    m1_resid = np.abs(seq.values[..., 1] - gamma) if n >= 2 else np.zeros(norm.shape)
    verdict = np.where(ok, 0, 1)  # indices into _STATUSES
    verdict[simple & ((polar_resid > MOMENT_POLAR_TOL * norm)
                      | (norm_resid > MOMENT_NORM_TOL * norm)
                      | (m1_resid > MOMENT_NORM_TOL * norm))] = 2
    verdict[simple & (seq.ratio_series_residual > RATIO_SERIES_TOL)] = 3
    if n > 2:
        bound_slack = (gamma + MOMENT_BOUND_TOL * norm
                       - np.abs(seq.values[..., 2:]).max(axis=-1))
        verdict[simple & (bound_slack < 0)] = 4
    else:
        bound_slack = np.full(norm.shape, None)
    status = _STATUSES[verdict]

    columns = {
        "simple_zeros": simple,
        "norm": norm,
        "entropy": entropy,
        "jensen_term": jensen_term,
        "polar_term": polar_term,
        "gamma": gamma,
        "remainder": remainder,
        "main_bound": main_bound,
        "strengthened_bound": strengthened_bound,
        "jensen_bound": jensen_bound,
        "polar_bound": polar_bound,
        **{key + "_gap": gap for key, gap in gaps.items()},
        "moment_polar_term": moment_polar,
        "moment_norm": moment_norm_val,
        "moment_values_advisory": ~simple,
        "extremal": extremal,
        "equality_margin": margin,
        "inequalities_ok": ok,
        "gap_tolerance": gap_tol,
        "moment_polar_resid": np.where(simple, polar_resid, None),
        "moment_norm_resid": np.where(simple, norm_resid, None),
        "ratio_series_resid": seq.ratio_series_residual,
        "moment_bound_slack_min": bound_slack,
        "status": status,
    }
    rows = norm.shape[0]
    return {"degree": [n] * rows, "routes": [_ROUTES] * rows,
            **{name: col.tolist() for name, col in columns.items()}}
