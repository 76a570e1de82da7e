"""Acceptance criteria, one test per criterion, at the stated tolerances.

Each test prints a single PASS/FAIL line (run with ``pytest -s`` to see them
on success) and asserts both the numerical criterion and its runtime limit.
"""

import math
import time
from fractions import Fraction

import numpy as np

import circentropy as ce
from circentropy.corpus import (
    instance_rng,
    random_circle_poly,
    random_circle_stack,
    random_schur_triple,
)
from circentropy.entropy import (
    GAP_TOL,
    MOMENT_BOUND_TOL,
    MOMENT_NORM_TOL,
    MOMENT_POLAR_TOL,
    RATIO_SERIES_TOL,
)
from circentropy.polycircle import polar_factor

TARGET = 1.0 - math.log(2.0)


def _report(num, name, ok, detail, elapsed, limit):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {num} {name}: {status} ({detail}; {elapsed:.1f}s / limit {limit}s)")


def test_criterion_01_h_fourier_table():
    start = time.perf_counter()
    worst = 0.0
    exact_ok = True
    for k in range(51):
        got = ce.h_fourier(k)
        if k == 0:
            exact_ok &= got == Fraction(2)
        elif k == 1:
            exact_ok &= got == Fraction(3, 2)
        else:
            exact_ok &= got == Fraction(2 * (-1) ** k, k * (k * k - 1))
        worst = max(worst, abs(ce.h_fourier_quadrature(k) - float(got)))
    elapsed = time.perf_counter() - start
    ok = exact_ok and worst < 1e-9 and elapsed < 5.0
    _report(1, "h-fourier-coefficients", ok,
            f"max quadrature residual {worst:.2e}", elapsed, 5)
    assert exact_ok
    assert worst < 1e-9
    assert elapsed < 5.0


def test_criterion_02_extremal_value():
    start = time.perf_counter()
    worst_spec = worst_quad = 0.0
    for n in range(1, 33):
        for i in range(20):
            rng = instance_rng(100, n, i)
            omega = np.exp(2j * np.pi * rng.random())
            angles = (np.angle(-omega) + 2 * np.pi * np.arange(n)) / n
            p = ce.from_angles(angles, 1.0 / math.sqrt(2.0))
            spec = ce.ratio_functional(p).entropy_integral
            worst_spec = max(worst_spec, abs(spec - TARGET))
            quad = ce.log_pair_quadrature(p.coefficients, p.coefficients,
                                          b_roots=p.roots)
            worst_quad = max(worst_quad, abs(quad - TARGET))
    elapsed = time.perf_counter() - start
    ok = worst_spec < 1e-9 and worst_quad < 1e-7 and elapsed < 30.0
    _report(2, "extremal-family-entropy", ok,
            f"spectral {worst_spec:.2e}, quadrature {worst_quad:.2e}",
            elapsed, 30)
    assert worst_spec < 1e-9
    assert worst_quad < 1e-7
    assert elapsed < 30.0


def test_criterion_03_strengthened_inequality():
    # also tracks the sharp polar estimate with remainder on the same corpus;
    # each degree's 500 instances are built and evaluated as one stack
    start = time.perf_counter()
    failures = 0
    min_gap = math.inf
    min_polar_gap = math.inf
    for n in range(1, 21):
        p = random_circle_stack(
            n, [instance_rng(101, n, i) for i in range(500)],
            multiple=[n >= 2 and i < 50 for i in range(500)], unit_norm=True)
        rf = ce.ratio_functional(p)
        norm = ce.parseval_norm(p)
        remainder = (2.0 * ce.gamma_remainder(p) / (n * (n - 1))
                     if n >= 2 else 0.0)
        gap = (rf.entropy_integral - norm * (1.0 + np.log(norm / 2.0))
               - remainder)
        min_gap = min(min_gap, float(gap.min()))
        min_polar_gap = min(min_polar_gap, float((rf.value - norm - remainder).min()))
        failures += int((gap < -GAP_TOL).sum())
    elapsed = time.perf_counter() - start
    ok = failures == 0 and min_polar_gap >= -GAP_TOL and elapsed < 180.0
    _report(3, "strengthened-inequality", ok,
            f"10000 instances, min gap {min_gap:.2e}, "
            f"min polar gap {min_polar_gap:.2e}, {failures} failures",
            elapsed, 180)
    assert failures == 0
    assert min_polar_gap >= -GAP_TOL
    assert elapsed < 180.0


def _moment_corpus():
    # 1000 simple-zero instances of degrees 1..16, one stack per degree
    for n in range(1, 17):
        rngs = [instance_rng(102, n, idx) for idx in range(n - 1, 1000, 16)]
        yield n, random_circle_stack(n, rngs, unit_norm=True)


def test_criterion_04_moment_formula_identity():
    start = time.perf_counter()
    worst_polar = worst_norm = 0.0
    for n, p in _moment_corpus():
        d = polar_factor(p)
        assert d.simple_zeros.all()
        seq = ce.moments(d)
        rf = ce.ratio_functional(p)
        norm = ce.parseval_norm(p)
        worst_polar = max(
            worst_polar,
            float((np.abs(rf.value - ce.polar_term_via_moments(seq)) / norm).max()),
        )
        worst_norm = max(
            worst_norm, float((np.abs(norm - ce.norm_via_moments(seq)) / norm).max())
        )
    elapsed = time.perf_counter() - start
    ok = (worst_polar < MOMENT_POLAR_TOL and worst_norm < MOMENT_NORM_TOL
          and elapsed < 60.0)
    _report(4, "moment-formula-identity", ok,
            f"polar resid {worst_polar:.2e}, norm resid {worst_norm:.2e}",
            elapsed, 60)
    assert worst_polar < MOMENT_POLAR_TOL
    assert worst_norm < MOMENT_NORM_TOL
    assert elapsed < 60.0


def test_criterion_05_moment_identities_and_bound():
    # M_n, M_{n+1}, ... vanish by construction (r_0 = 0), so the series
    # identity r q = q* is checked in their place.  M_1 = Gamma exactly
    # (Parseval), so k = 1 is an identity; the bound |M_k| <= Gamma
    # applies for k >= 2.
    start = time.perf_counter()
    worst_ratio = worst_m1 = 0.0
    min_bound_slack = math.inf
    for n, p in _moment_corpus():
        d = polar_factor(p)
        seq = ce.moments(d)
        worst_ratio = max(worst_ratio, float(seq.ratio_series_residual.max()))
        if n >= 2:
            gamma = ce.gamma_remainder(p)
            norm = ce.parseval_norm(p)
            worst_m1 = max(worst_m1,
                           float((np.abs(seq.values[:, 1] - gamma) / norm).max()))
        if n >= 3:
            slack = gamma + MOMENT_BOUND_TOL - np.abs(seq.values[:, 2:]).max(axis=-1)
            min_bound_slack = min(min_bound_slack, float(slack.min()))
    elapsed = time.perf_counter() - start
    ok = (worst_ratio <= RATIO_SERIES_TOL and worst_m1 <= MOMENT_NORM_TOL
          and min_bound_slack >= 0.0)
    _report(5, "ratio-series-identity-and-bound", ok,
            f"r q - q* {worst_ratio:.2e}, M1 - Gamma {worst_m1:.2e}, "
            f"bound slack {min_bound_slack:.2e}",
            elapsed, 60)
    assert worst_ratio <= RATIO_SERIES_TOL
    assert worst_m1 <= MOMENT_NORM_TOL
    assert min_bound_slack >= 0.0


def test_criterion_06_schur_contraction():
    start = time.perf_counter()
    min_slack = math.inf
    for i in range(1000):
        zeros, gamma, f, n = random_schur_triple(instance_rng(103, i))
        rep = ce.schur_contraction_check(zeros, gamma, f, n)
        min_slack = min(min_slack, rep.s_n_slack, rep.min_partial_slack)
    elapsed = time.perf_counter() - start
    ok = min_slack >= -1e-12 and elapsed < 30.0
    _report(6, "schur-contraction", ok, f"min slack {min_slack:.2e}",
            elapsed, 30)
    assert min_slack >= -1e-12
    assert elapsed < 30.0


def test_criterion_07_telescoping_identity():
    start = time.perf_counter()
    running = Fraction(0)
    ok = True
    for n in range(2, 10001):
        if n > 2:
            k = n - 1
            running += Fraction(1, k * (k * k - 1))
        if running != Fraction(1, 4) - Fraction(1, 2 * n * (n - 1)):
            ok = False
            break
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 5.0
    _report(7, "telescoping-identity", ok, "exact through n=10000", elapsed, 5)
    assert ok
    assert elapsed < 5.0


def test_criterion_08_double_zero_regression():
    start = time.perf_counter()
    p = ce.from_roots([1.0, 1.0])
    rep = ce.verify_main(p)
    spectral_resid = max(
        abs(rep.entropy - 14.0), abs(rep.jensen_term - 7.0),
        abs(rep.polar_term - 7.0), abs(rep.gamma - 1.0), abs(rep.norm - 6.0),
    )
    e_quad = ce.log_pair_quadrature(p.coefficients, p.coefficients,
                                    b_roots=p.roots)
    j_quad = ce.log_pair_quadrature(p.coefficients, polar_factor(p).q)
    quad_resid = max(abs(e_quad - 14.0), abs(j_quad - 7.0))
    elapsed = time.perf_counter() - start
    ok = spectral_resid < 1e-10 and quad_resid < 1e-8 and elapsed < 1.0
    _report(8, "double-zero-regression", ok,
            f"spectral {spectral_resid:.2e}, quadrature {quad_resid:.2e}",
            elapsed, 1)
    assert spectral_resid < 1e-10
    assert quad_resid < 1e-8
    assert elapsed < 1.0


def test_criterion_09_extremal_search():
    start = time.perf_counter()
    worst_gap = worst_dev = 0.0
    for n in range(2, 9):
        res = ce.minimize(n, restarts=max(8, 4 * n), seed=200 + n)
        worst_gap = max(worst_gap, res.gap)
        worst_dev = max(worst_dev, res.angle_gap_deviation)
        assert res.min_objective_seen >= TARGET - 1e-9
    elapsed = time.perf_counter() - start
    ok = worst_gap < 1e-6 and worst_dev < 1e-4 and elapsed < 120.0
    _report(9, "extremal-search", ok,
            f"worst gap {worst_gap:.2e}, worst angle dev {worst_dev:.2e}",
            elapsed, 120)
    assert worst_gap < 1e-6
    assert worst_dev < 1e-4
    assert elapsed < 120.0


def test_criterion_10_coalescence_convergence():
    start = time.perf_counter()
    schedule = [2.0**-k for k in range(1, 21)]
    worst = 0.0
    for i in range(20):
        rng = instance_rng(104, i)
        n = int(rng.integers(2, 9))
        p = random_circle_poly(n, rng, multiple=True, unit_norm=True)
        assert not polar_factor(p).simple_zeros
        table = ce.coalescence_experiment(p, schedule)
        first = max(table.rows[0].dev_entropy, table.rows[0].dev_jensen,
                    table.rows[0].dev_polar, table.rows[0].dev_gamma)
        assert table.final_max_deviation <= max(first, 1e-6)
        worst = max(worst, table.final_max_deviation)
    elapsed = time.perf_counter() - start
    ok = worst < 1e-4 and elapsed < 60.0
    _report(10, "coalescence-convergence", ok,
            f"worst final deviation {worst:.2e}", elapsed, 60)
    assert worst < 1e-4
    assert elapsed < 60.0


def test_criterion_11_route_agreement():
    # The two terms the suite reports, from ratio_functional, against the
    # two quadratures.
    start = time.perf_counter()
    worst = 0.0
    for n in range(1, 17):
        for i in range(500):
            rng = instance_rng(105, n, i)
            p = random_circle_poly(n, rng, unit_norm=True)
            a = p.coefficients
            rf = ce.ratio_functional(p)
            worst = max(
                worst,
                abs(rf.entropy_integral - ce.log_pair_quadrature(a, a, b_roots=p.roots)),
                abs(rf.jensen_integral - ce.log_pair_quadrature(a, polar_factor(p).q)),
            )
    elapsed = time.perf_counter() - start
    ok = worst < 1e-7 and elapsed < 120.0
    _report(11, "route-agreement", ok, f"worst disagreement {worst:.2e}",
            elapsed, 120)
    assert worst < 1e-7
    assert elapsed < 120.0
