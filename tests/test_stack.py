"""Stacked kernels against per-instance oracles, and stack invariance.

Each kernel that runs over a stack (one row per polynomial) is compared with
an inline per-instance loop through np.vdot, np.dot or np.convolve, the way
the values were computed one polynomial at a time.  The sums run in another
order, so they agree to rounding, within one tolerance relative to N.  A
report must not depend on the stack that computed it: that holds bit for
bit.
"""

import json

import numpy as np
import pytest

import circentropy as ce
from circentropy.blaschke_moments import series_divide
from circentropy.corpus import instance_rng, random_circle_poly
from circentropy.entropy import _STACK_ENTRIES

ORACLE_TOL = 1e-13          # x N: stacked kernel against its per-instance loop
DEGREES = (1, 2, 3, 20, 128)
COUNT = 6                   # instances per stack; the first has a multiple zero


def _stack(n):
    polys = [
        ce.normalize_self_inversive(
            random_circle_poly(n, instance_rng(40, n, i), multiple=(n >= 2 and i == 0))
        ).normalized
        for i in range(COUNT)
    ]
    return polys, ce.stack(polys)


def _divide_by_dot(num, den, order):
    out = np.zeros(order + 1, dtype=complex)
    for k in range(order + 1):
        acc = num[k] if k < num.size else 0.0
        m = min(k, den.size - 1)
        if m >= 1:
            acc = acc - np.dot(den[1 : m + 1], out[k - m : k][::-1])
        out[k] = acc / den[0]
    return out


def test_autocorrelation_matches_vdot_per_instance():
    for n in DEGREES:
        polys, p = _stack(n)
        c = ce.trig_square(p.coefficients).coefficients
        norm = ce.parseval_norm(p)
        for i, poly in enumerate(polys):
            a = poly.coefficients
            want = np.array([np.vdot(a[: n + 1 - k], a[k:]) for k in range(n + 1)])
            assert np.abs(c[i, n:] - want).max() <= ORACLE_TOL * norm[i], (n, i)
            assert np.array_equal(c[i, :n + 1], np.conj(c[i, n:][::-1]))


def test_root_pairing_matches_matrix_product_per_instance():
    for n in DEGREES:
        polys, p = _stack(n)
        a = p.coefficients
        got = ce.log_pair_spectral(a, a, b_roots=p.roots)
        norm = ce.parseval_norm(p)
        for i, poly in enumerate(polys):
            b = poly.coefficients
            cm = np.array([np.vdot(b[: n + 1 - k], b[k:]) for k in range(1, n + 1)])
            m = np.arange(1, n + 1)
            roots = poly.roots / np.abs(poly.roots)
            want = (norm[i] * 2.0 * np.log(abs(b[n]))
                    - 2.0 * ((roots[:, None] ** m) @ (cm / m)).real.sum())
            assert abs(got[i] - want) <= ORACLE_TOL * norm[i], (n, i)


def test_log_series_pairing_matches_vdot_per_instance():
    for n in DEGREES:
        polys, p = _stack(n)
        got = ce.log_pair_spectral(p.coefficients, p.h_series)
        norm = ce.parseval_norm(p)
        for i, poly in enumerate(polys):
            a, h = poly.coefficients, poly.h_series
            cm = np.array([np.vdot(a[: n + 1 - k], a[k:]) for k in range(1, n + 1)])
            dlog = _divide_by_dot(h[1:] * np.arange(1, n + 1), h, n - 1)
            want = 2.0 * np.vdot(dlog / np.arange(1, n + 1), cm).real
            assert abs(got[i] - want) <= ORACLE_TOL * norm[i], (n, i)


def test_series_divide_matches_dot_recurrence_per_instance():
    # q = h p, so q / h gives p back through degree n.
    for n in DEGREES:
        polys, p = _stack(n)
        q = ce.polar_factor(p).q
        got = series_divide(q, p.h_series, n)
        norm = ce.parseval_norm(p)
        for i, poly in enumerate(polys):
            want = _divide_by_dot(q[i], poly.h_series, n)
            assert np.abs(got[i] - want).max() <= ORACLE_TOL * norm[i], (n, i)
            assert np.abs(got[i] - poly.coefficients).max() <= 1e-10 * norm[i]


def test_moments_match_convolution_per_instance():
    for n in DEGREES:
        polys, p = _stack(n)
        seq = ce.moments(ce.polar_factor(p))
        norm = ce.parseval_norm(p)
        for i, poly in enumerate(polys):
            q = ce.polar_factor(poly).q
            r = _divide_by_dot(np.ones(1, dtype=complex), poly.h_series, n - 1)
            r[0] = 0.0
            want = [np.vdot(q, q)]
            f = q
            for _ in range(1, n):
                f = np.convolve(r, f)[:n]
                want.append(np.vdot(q, f))
            assert np.abs(seq.values[i] - want).max() <= ORACLE_TOL * norm[i], (n, i)


def test_a_report_does_not_depend_on_its_stack():
    # Mixed degrees, multiple zeros, a stack of one, and at n = 128 more rows
    # than one verification block holds.
    polys = []
    for n in (1, 2, 3, 7, 20, 128):
        count = 2 + _STACK_ENTRIES // (n * n) if n == 128 else 5
        polys += [random_circle_poly(n, instance_rng(41, n, i),
                                     multiple=(n >= 2 and i % 2 == 0))
                  for i in range(count)]
    polys.append(ce.from_roots([1.0, 1.0]))
    stacked = ce.verify_stack(polys)
    assert [rep.degree for rep in stacked] == [poly.degree for poly in polys]
    assert not all(rep.simple_zeros for rep in stacked)
    for poly, rep in zip(polys, stacked):
        alone = json.dumps(ce.verify_main(poly).to_dict())
        assert json.dumps(rep.to_dict()) == alone, poly.degree
    # a stack's rows in another order give the same reports
    again = ce.verify_stack(polys[::-1])[::-1]
    assert [r.to_dict() for r in again] == [r.to_dict() for r in stacked]


def test_stack_input_checks():
    with pytest.raises(ValueError, match="one degree"):
        ce.stack([ce.from_roots([1.0]), ce.from_roots([1.0, -1.0])])
    # given roots need every row of B at their degree
    b = np.array([[1.0, -2.0, 1.0], [1.0, -1.0, 0.0]])
    with pytest.raises(ValueError, match="share their degree"):
        ce.log_pair_spectral([[1.0, 1.0], [1.0, 1.0]], b,
                             b_roots=[[1.0, 1.0], [1.0, 1.0]])
    with pytest.raises(ce.ZeroPolynomial):
        ce.trig_square([[1.0, 1.0], [0.0, 0.0]])
    with pytest.raises(ce.ZeroConstantTerm):
        series_divide(1.0, [[1.0, 1.0], [0.0, 1.0]], 3)
