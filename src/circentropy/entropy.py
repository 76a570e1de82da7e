"""Entropy functionals on circle polynomials and the inequality checks.

Assembles, for one polynomial with all zeros on the unit circle: the squared
norm N, the entropy E = int |p|^2 log|p|^2 dm, its split into the Jensen term
int |p|^2 log|q|^2 dm and the polar quotient functional, the remainder sum,
every lower bound with its gap, the moment-formula cross values, and the
equality-case classification against the binomial family c(omega + z^n).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, fields
from fractions import Fraction

import numpy as np

from .blaschke_moments import MomentSequence, moments
from .errors import RootsOffCircle
from .log_integrals import QuadratureConfig, circle_quadrature, ratio_functional
from .polycircle import (
    TAU_UNIMOD,
    CirclePoly,
    PolarDecomposition,
    eval_poly,
    gamma_remainder,
    normalize_self_inversive,
    parseval_norm,
    polar_factor,
)

TAU_EQ = 1e-8        # relative coefficient tolerance for equality classification
GAP_TOL = 1e-9       # default slack allowed on the inequality gaps


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


def h_tail_bound(L: int) -> Fraction:
    """Exact bound 4 * sum_{k>L} 1/(k(k^2-1)) on the partial-sum error."""
    if L < 1:
        raise ValueError("tail bound needs L >= 1")
    return Fraction(2, L * (L + 1))


def h_values(t) -> np.ndarray:
    """Pointwise h(e^{it}) = |1+e^{it}|^2 log|1+e^{it}|^2, with 0 log 0 = 0."""
    t = np.asarray(t, dtype=float)
    x = 2.0 + 2.0 * np.cos(t)
    with np.errstate(divide="ignore", invalid="ignore"):
        out = x * np.log(x)
    return np.where(x > 0, out, 0.0)


def h_partial_sum(t, L: int) -> np.ndarray:
    """Symmetric partial sum of the Fourier series of h through order L."""
    t = np.asarray(t, dtype=float)
    acc = np.full_like(t, 2.0) + 3.0 * np.cos(t)
    for k in range(2, L + 1):
        acc = acc + 2.0 * float(h_fourier(k)) * np.cos(k * t)
    return acc


def h_fourier_quadrature(k: int, config: QuadratureConfig | None = None) -> float:
    """Quadrature cross-check of the k-th Fourier coefficient of h."""

    def integrand(t):
        return h_values(t) * np.cos(k * t)

    return circle_quadrature(integrand, singular_angles=[np.pi], config=config)


def telescoping_sum(n: int) -> Fraction:
    """Exact rational value of sum_{k=2}^{n-1} 1/(k(k^2-1))."""
    if n < 2:
        raise ValueError("telescoping sum needs n >= 2")
    total = Fraction(0)
    for k in range(2, n):
        total += Fraction(1, k * (k * k - 1))
    return total


def telescoping_closed_form(n: int) -> Fraction:
    """The closed form 1/4 - 1/(2n(n-1)) of the telescoping sum."""
    if n < 2:
        raise ValueError("closed form needs n >= 2")
    return Fraction(1, 4) - Fraction(1, 2 * n * (n - 1))


def polar_term_via_moments(seq: MomentSequence, n: int | None = None) -> float:
    """Moment-formula value 2M_0 + 3 Re M_1 + 4 sum_{k>=2} w_k Re M_k.

    The weights are (-1)^k / (k(k^2-1)); for n = 1 this reduces to 2 M_0.
    Outside the simple-zero case the value is advisory only (consult the
    sequence's ``simple_zeros`` flag).
    """
    if n is None:
        n = seq.degree
    vals = seq.values
    total = 2.0 * float(vals[0].real)
    if n >= 2:
        total += 3.0 * float(vals[1].real)
    for k in range(2, n):
        total += 4.0 * ((-1) ** k / (k * (k * k - 1))) * float(vals[k].real)
    return total


def norm_via_moments(seq: MomentSequence) -> float:
    """Moment identity for the squared norm: N = 2 M_0 + 2 Re M_1."""
    total = 2.0 * float(seq.values[0].real)
    if seq.degree >= 2:
        total += 2.0 * float(seq.values[1].real)
    return total


def mu_mass_check(d: PolarDecomposition, nodes: int = 1 << 14) -> float:
    """Quadrature of |1 + r|^2 over the circle (equals 2 for simple zeros).

    This is twice the total mass of the probability measure (1/2)|1+r|^2 dm.
    Grid points where |q| is negligible are excluded, which only matters for
    inputs with multiple zeros.
    """
    t = np.arange(nodes) * (2 * np.pi / nodes)
    z = np.exp(1j * t)
    qv = eval_poly(d.q, z)
    mask = np.abs(qv) > 1e-13 * np.max(np.abs(qv))
    rv = eval_poly(d.qstar, z[mask]) / qv[mask]
    return float(np.mean(np.abs(1.0 + rv) ** 2))


@dataclass(frozen=True)
class EntropyReport:
    """All functionals, bounds, gaps, and classifications for one polynomial."""

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

    def to_dict(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self)}

    def to_json(self, indent: int | None = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent)


def _classify_extremal(coeffs: np.ndarray, n: int) -> tuple[bool, float]:
    """Equality-case test: all interior coefficients negligible, |a_0|=|a_n|."""
    edge = max(abs(coeffs[0]), abs(coeffs[n]))
    margin = float(np.abs(coeffs[1:n]).max() / edge) if n >= 2 else 0.0
    balanced = abs(abs(coeffs[0]) - abs(coeffs[n])) < TAU_EQ * edge
    return bool(margin < TAU_EQ and balanced), margin


def verify_main(p: CirclePoly, gap_tol: float = GAP_TOL) -> EntropyReport:
    """Full entropy report for one circle polynomial.

    Normalizes the input self-inversive, computes every functional, evaluates
    the four lower bounds (Jensen, polar, main, strengthened) with their
    gaps, attaches the moment-formula values (advisory outside the
    simple-zero case), and classifies the equality case.
    """
    return _verify_with_moments(p, gap_tol)[0]


def _verify_with_moments(
    p: CirclePoly, gap_tol: float = GAP_TOL
) -> tuple[EntropyReport, MomentSequence]:
    """``verify_main`` and the moment sequence of its polar pair.

    The sequence is the one the report's moment values come from, so
    callers that also check moments need not compute it again.
    """
    if (np.abs(np.abs(p.roots) - 1.0) > TAU_UNIMOD).any():
        raise RootsOffCircle("verify_main requires all zeros on the unit circle")
    ps = normalize_self_inversive(p).normalized
    n = ps.degree
    d = polar_factor(ps)

    norm = parseval_norm(ps)
    gamma = gamma_remainder(ps)
    rf = ratio_functional(ps)
    jensen_term = rf.jensen_integral
    entropy = rf.entropy_integral
    polar_term = rf.value

    remainder = 2.0 * gamma / (n * (n - 1)) if n >= 2 else 0.0
    main_bound = norm * (1.0 + math.log(norm / 2.0))
    strengthened_bound = main_bound + remainder
    jensen_bound = norm * math.log(norm / 2.0)
    polar_bound = norm + remainder

    seq = moments(d)
    moment_polar = polar_term_via_moments(seq, n)
    moment_norm_val = norm_via_moments(seq)

    extremal, margin = _classify_extremal(ps.coefficients, n)
    gaps = {
        "main": entropy - main_bound,
        "strengthened": entropy - strengthened_bound,
        "jensen": jensen_term - jensen_bound,
        "polar": polar_term - polar_bound,
    }
    ok = all(v >= -gap_tol for v in gaps.values())
    report = EntropyReport(
        degree=n,
        simple_zeros=d.simple_zeros,
        norm=norm,
        entropy=entropy,
        jensen_term=jensen_term,
        polar_term=polar_term,
        gamma=gamma,
        remainder=remainder,
        main_bound=main_bound,
        strengthened_bound=strengthened_bound,
        jensen_bound=jensen_bound,
        polar_bound=polar_bound,
        main_gap=gaps["main"],
        strengthened_gap=gaps["strengthened"],
        jensen_gap=gaps["jensen"],
        polar_gap=gaps["polar"],
        moment_polar_term=moment_polar,
        moment_norm=moment_norm_val,
        moment_values_advisory=not d.simple_zeros,
        extremal=extremal,
        equality_margin=margin,
        routes=dict(rf.routes),
        inequalities_ok=ok,
        gap_tolerance=gap_tol,
    )
    return report, seq
