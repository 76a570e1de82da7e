"""Tests for the spectral and quadrature evaluators of |A|^2 log|B|^2 integrals."""

import math
import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

import circentropy as ce
from circentropy import log_integrals
from circentropy.corpus import instance_rng, random_circle_poly
from circentropy.entropy import h_fourier, h_fourier_quadrature
from circentropy.log_integrals import (
    _G10_WEIGHTS,
    _K21_NODES,
    _K21_WEIGHTS,
    _KG_WEIGHTS,
    _LOG_FLOOR,
    _S_CUT,
    MAX_SERIES_DEGREE,
    _kronrod_nodes,
    polished_roots,
)
from circentropy.polycircle import eval_poly


def test_trig_square_examples():
    ts = ce.trig_square([1.0, 1.0])
    assert np.allclose(ts.coefficients, [1, 2, 1])
    ts = ce.trig_square([1.0, -2.0, 1.0])
    assert np.allclose(ts.coefficients, [1, -4, 6, -4, 1])
    ts = ce.trig_square([0, 0, 0, 1.0])  # z^3
    assert ts.degree == 3
    assert ts.coefficient(0) == 1.0
    assert all(ts.coefficient(k) == 0 for k in (1, 2, 3, 5))
    with pytest.raises(ce.ZeroPolynomial):
        ce.trig_square([0.0, 0.0])


def test_trig_square_hermitian_and_pointwise():
    rng = instance_rng(30)
    a = rng.standard_normal(8) + 1j * rng.standard_normal(8)
    ts = ce.trig_square(a)
    c = ts.coefficients
    assert np.max(np.abs(c - np.conj(c[::-1]))) == 0.0
    assert abs(ts.coefficient(0) - ce.parseval_norm(a)) < 1e-12
    t = np.arange(1024) * (2 * np.pi / 1024)
    direct = np.abs(eval_poly(a, np.exp(1j * t))) ** 2
    assert np.max(np.abs(ts(t) - direct)) < 1e-10 * np.max(direct)


def test_polished_roots_basics():
    assert np.allclose(polished_roots([1.0, -1.0]), [1.0])  # 1 - z
    # constant (the polar factor of a binomial): no roots
    assert polished_roots([3.0 + 0j]).size == 0
    # trailing zeros lower the degree
    assert np.allclose(polished_roots([2.0, 1.0, 0.0, 0.0]), [-2.0])
    with pytest.raises(ce.ZeroPolynomial):
        polished_roots([0.0])


def test_polished_roots_accuracy():
    rng = instance_rng(31)
    b = rng.standard_normal(9) + 1j * rng.standard_normal(9)
    roots = polished_roots(b)
    resid = np.abs(eval_poly(b, roots))
    assert np.max(resid) < 1e-9 * np.sum(np.abs(b))


def test_log_pair_spectral_frozen_values():
    assert abs(ce.log_pair_spectral([1, 1], [1, 1]) - 2.0) < 1e-14
    assert abs(ce.log_pair_spectral([1, -2, 1], [1, -2, 1]) - 14.0) < 1e-13
    assert abs(ce.log_pair_spectral([1, -2, 1], [1, -1]) - 7.0) < 1e-13


def test_log_pair_spectral_mahler_and_scaling():
    # mean of log|e^{it} - rho|^2 is 0 for |rho| <= 1, log|rho|^2 outside
    assert abs(ce.log_pair_spectral([1.0], [-1.0, 1.0])) < 1e-14
    assert abs(ce.log_pair_spectral([1.0], [1.0, -0.5]) - 0.0) < 1e-14
    val = ce.log_pair_spectral([1.0, 1.0], [1.0, -0.5])
    assert abs(val - (-1.0)) < 1e-14
    assert abs(ce.log_pair_spectral([1.0], [-1.0, 1.0], b_roots=[1.0])) < 1e-14


def test_log_pair_spectral_input_checks():
    with pytest.raises(ce.NonUnimodularRoot):
        ce.log_pair_spectral([1.0, 1.0], [-2.0, 1.0], b_roots=[2.0])
    with pytest.raises(ValueError):
        ce.log_pair_spectral([1.0, 1.0], [-1.0, 1.0], b_roots=[1.0, -1.0])
    with pytest.raises(ce.ZeroConstantTerm):  # a zero at 0 is inside the disk
        ce.log_pair_spectral([1.0, 1.0], [0.0, 1.0])
    # the series route stops at its certified degree; roots have no limit
    top = ce.from_angles(np.arange(MAX_SERIES_DEGREE + 1) * 0.1)
    with pytest.raises(ce.IllConditioned):
        ce.log_pair_spectral(top.coefficients, [1.0, 0.5])
    with pytest.raises(ce.IllConditioned):
        ce.log_pair_spectral([1.0], top.coefficients)
    with pytest.raises(ce.IllConditioned):
        ce.ratio_functional(top)
    assert abs(ce.log_pair_spectral([1.0], top.coefficients, b_roots=top.roots)) < 1e-12


def test_log_pair_quadrature_matches_spectral_frozen():
    assert abs(ce.log_pair_quadrature([1, 1], [1, 1]) - 2.0) < 1e-8
    assert abs(ce.log_pair_quadrature([1, -2, 1], [1, -1]) - 7.0) < 1e-8
    assert abs(ce.log_pair_quadrature([1.0], [-1.0, 1.0])) < 1e-8


def test_route_agreement_random_sample():
    # through n = MAX_SERIES_DEGREE, where the series route must still hold
    for n, count in ((1, 8), (3, 8), (7, 8), (12, 8), (16, 8),
                     (32, 3), (64, 3), (MAX_SERIES_DEGREE, 3)):
        for i in range(count):
            p = random_circle_poly(n, instance_rng(32, n, i), unit_norm=True)
            a = p.coefficients
            rf = ce.ratio_functional(p)
            qd = ce.log_pair_quadrature(a, a, b_roots=p.roots)
            assert abs(rf.entropy_integral - qd) < 1e-7
            qd = ce.log_pair_quadrature(a, ce.polar_factor(p).q)
            assert abs(rf.jensen_integral - qd) < 1e-7


def test_jensen_term_matches_mpmath_reference():
    # Suite instance (n=20, index 92, seed 42), where roots of q found by the
    # companion matrix drifted by 1.7e-7 N.  Frozen from highprec at 120 bits:
    #   p = random_circle_poly(20, instance_rng(42, 20, 92))
    #   ps = ce.normalize_self_inversive(p).normalized
    #   entropy_values_mp(ps, bits=120)["jensen_term"]
    reference = 1877893431.41319991340869390634
    p = random_circle_poly(20, instance_rng(42, 20, 92))
    ps = ce.normalize_self_inversive(p).normalized
    rf = ce.ratio_functional(ps)
    assert abs(rf.jensen_integral - reference) < 1e-12 * ce.parseval_norm(ps)


def test_jensen_term_where_the_series_of_q_drifts():
    # At this n = 128 instance the division by q itself loses 2.1e-7; the
    # Jensen term divides by h = q/p instead.  Quadrature is within 6e-12
    # of a 160-bit evaluation of the series here.
    p = random_circle_poly(128, instance_rng(503, 128, 3), unit_norm=True)
    a = p.coefficients
    jensen_q = ce.log_pair_quadrature(a, ce.polar_factor(p).q)
    assert abs(ce.ratio_functional(p).jensen_integral - jensen_q) < 1e-10


def test_rotation_invariance():
    p = random_circle_poly(6, instance_rng(33, 6))
    gamma = np.exp(0.37j)
    rotated = ce.from_roots(p.roots * np.conj(gamma), p.leading * gamma**p.degree)
    for poly in (p,):
        base_e = ce.log_pair_spectral(p.coefficients, p.coefficients, b_roots=p.roots)
        rot_e = ce.log_pair_spectral(
            rotated.coefficients, rotated.coefficients, b_roots=rotated.roots
        )
        assert abs(base_e - rot_e) < 1e-9
    q = ce.polar_factor(p).q
    qr = ce.polar_factor(ce.normalize_self_inversive(rotated).normalized).q
    assert abs(
        ce.log_pair_spectral(p.coefficients, q)
        - ce.log_pair_spectral(rotated.coefficients, qr)
    ) < 1e-9


def test_scaling_law():
    rng = instance_rng(34)
    a = rng.standard_normal(5) + 1j * rng.standard_normal(5)
    b = ce.from_angles(rng.uniform(0, 2 * np.pi, 4)).coefficients
    c = 2.5 - 1.3j
    base = ce.log_pair_spectral(a, b)
    scaled = ce.log_pair_spectral(a, c * b)
    expected = base + ce.parseval_norm(a) * math.log(abs(c) ** 2)
    assert abs(scaled - expected) < 1e-9


def test_ratio_functional_frozen_values():
    n = 6
    p = ce.from_angles((np.pi + 2 * np.pi * np.arange(n)) / n)  # 1 + z^6
    rf = ce.ratio_functional(p)
    assert abs(rf.value - 2.0) < 1e-12
    assert abs(rf.jensen_integral) < 1e-12

    rf = ce.ratio_functional(ce.from_roots([1.0, 1.0]))
    assert abs(rf.value - 7.0) < 1e-12
    assert abs(rf.entropy_integral - 14.0) < 1e-12

    p1 = ce.from_roots([-1.0])  # 1 + z, n = 1
    rf = ce.ratio_functional(p1)
    assert abs(rf.value - ce.parseval_norm(p1)) < 1e-13
    assert rf.routes["entropy"] == "spectral"


def test_log_continuity_along_coalescence():
    # perturbed values converge to the difference-form values on p itself
    p = ce.normalize_self_inversive(
        ce.from_roots([1.0, 1.0, np.exp(2j), np.exp(2j), np.exp(4.5j)])
    ).normalized
    rf = ce.ratio_functional(p)
    prev_e = prev_j = np.inf
    for k in (2, 6, 10, 14, 20):
        pe = ce.perturb_roots(p, 2.0**-k)
        rfe = ce.ratio_functional(pe)
        dev_e = abs(rfe.entropy_integral - rf.entropy_integral)
        dev_j = abs(rfe.jensen_integral - rf.jensen_integral)
        assert dev_e < max(prev_e, 1e-12) * 1.5
        assert dev_j < max(prev_j, 1e-12) * 1.5
        prev_e, prev_j = dev_e, dev_j
    assert prev_e < 1e-4 and prev_j < 1e-4


def test_finiteness_at_maximal_multiplicity():
    for n in (2, 5, 8):
        p = ce.normalize_self_inversive(ce.from_roots([np.exp(0.4j)] * n)).normalized
        rf = ce.ratio_functional(p)
        assert math.isfinite(rf.value)
        assert math.isfinite(rf.entropy_integral)
        assert math.isfinite(rf.jensen_integral)


def _kronrod_nodes_reference(window_pieces, arc_pieces, levels):
    # Panel by panel from np.linspace; _kronrod_nodes must reproduce its
    # bytes.
    pts = []
    wts = []
    counts = []
    for (c, sign, s0, s_cut), level in zip(window_pieces, levels):
        panels = max(2, int(math.ceil((s_cut - s0) / 2.5))) * 2**int(level)
        edges = np.linspace(s0, s_cut, panels + 1)
        half = (s_cut - s0) / (2.0 * panels)
        mids = 0.5 * (edges[:-1] + edges[1:])
        u = np.exp(-(mids[:, None] + half * _K21_NODES[None, :]))
        pts.append(c + sign * u)
        wts.append(half * u)
        counts.append(panels)
    for (a, b, p0), level in zip(arc_pieces, levels[len(window_pieces):]):
        panels = p0 * 2**int(level)
        edges = np.linspace(a, b, panels + 1)
        half = (b - a) / (2.0 * panels)
        mids = 0.5 * (edges[:-1] + edges[1:])
        pts.append(mids[:, None] + half * _K21_NODES[None, :])
        wts.append(np.full((panels, _K21_NODES.size), half))
        counts.append(panels)
    return np.concatenate(pts), np.concatenate(wts), np.array(counts)


_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(16)


def _gl16_level_nodes(window_pieces, arc_pieces, level):
    # The uniform 16-point Gauss-Legendre level rule that the Kronrod rounds
    # replaced, every panel of every piece doubled ``level`` times: the
    # accuracy reference.
    pts = []
    wts = []
    for c, sign, s0, s_cut in window_pieces:
        panels = max(2, int(math.ceil((s_cut - s0) / 2.5))) * 2**level
        edges = np.linspace(s0, s_cut, panels + 1)
        half = (s_cut - s0) / (2.0 * panels)
        mids = 0.5 * (edges[:-1] + edges[1:])
        s = (mids[:, None] + half * _GL_NODES[None, :]).ravel()
        u = np.exp(-s)
        pts.append(c + sign * u)
        wts.append(np.tile(_GL_WEIGHTS * half, panels) * u)
    for a, b, p0 in arc_pieces:
        panels = p0 * 2**level
        edges = np.linspace(a, b, panels + 1)
        half = (b - a) / (2.0 * panels)
        mids = 0.5 * (edges[:-1] + edges[1:])
        pts.append((mids[:, None] + half * _GL_NODES[None, :]).ravel())
        wts.append(np.tile(_GL_WEIGHTS * half, panels))
    return np.concatenate(pts), np.concatenate(wts)


def _log_distance_sum_reference(t, angles):
    # The original one-matrix integrand term.
    dist2 = 4.0 * np.sin(0.5 * (t[None, :] - angles[:, None])) ** 2
    return np.sum(np.log(np.maximum(dist2, _LOG_FLOOR)), axis=0)


def _horner_reference(coeffs, z):
    # The original Horner loop, a new array per step.
    z = np.asarray(z, dtype=complex)
    acc = np.zeros_like(z)
    for c in np.asarray(coeffs, dtype=complex)[::-1]:
        acc = acc * z + c
    return acc


def _random_pieces(rng):
    windows = []
    for _ in range(rng.integers(0, 12)):
        s0 = -math.log(rng.uniform(1e-9, 5e-3))
        s_cut = float(rng.choice([s for s in np.arange(10.0, 38.0, 3.0) if s > s0]))
        c = float(rng.uniform(0, 2 * np.pi + 0.1))  # past 2pi: a wrapped window
        windows.append((c, float(rng.choice([-1.0, 1.0])), s0, s_cut))
    arcs = []
    for _ in range(rng.integers(0 if windows else 1, 6)):
        a = float(rng.uniform(0, 2 * np.pi))
        length = float(rng.uniform(1e-3, 3.0))
        arcs.append((a, a + length, max(1, int(math.ceil(length / 0.15)))))
    return windows, arcs


def _quadrature_oracle_cases():
    def circle(p):
        return p, p.coefficients, p.roots

    yield circle(ce.from_roots([-1.0]))  # n = 1
    # a cluster across 0/2pi, merged into one wrapped window
    yield circle(ce.from_angles([2 * np.pi - 1e-3, 1e-3, 2 * np.pi - 2e-3, 2.0, 4.0]))
    yield circle(ce.from_roots([1.0, 1.0, np.exp(2j), np.exp(2j), np.exp(4.5j)]))
    yield circle(ce.from_angles([1.0, 1.0 + 1e-5, 3.0, 5.0]))
    # q has a zero 2.5e-7 off the circle: a window that is not a factor
    yield circle(ce.from_angles([1.0, 1.0 + 1e-3, 3.0, 5.0]))
    yield circle(random_circle_poly(12, instance_rng(36, 12), unit_norm=True))
    yield circle(random_circle_poly(128, instance_rng(36, 128), unit_norm=True))


def _spy_tail_cuts(m, checked):
    # The tail cuts of every window group must be those of the original
    # evaluation, one center at a time.  ``checked`` counts the groups and
    # the cuts shorter than _S_CUT.
    quadrature = log_integrals.circle_quadrature
    window_pieces = log_integrals._window_pieces
    seen = {}

    def quadrature_spy(f, singular_angles=(), scale=1.0, s_cut_of=None):
        seen["s_cut_of"] = s_cut_of
        return quadrature(f, singular_angles, scale=scale, s_cut_of=s_cut_of)

    def window_pieces_spy(start, end, group, cuts):
        want = [min(_S_CUT, seen["s_cut_of"](np.array([c]))[0]) for c in group]
        assert list(cuts) == want
        checked["groups"] += 1
        checked["short"] += sum(cut < _S_CUT for cut in cuts)
        return window_pieces(start, end, group, cuts)

    m.setattr(log_integrals, "circle_quadrature", quadrature_spy)
    m.setattr(log_integrals, "_window_pieces", window_pieces_spy)


def test_quadrature_matches_unblocked_reference_bit_for_bit(monkeypatch):
    rng = instance_rng(35)
    for _ in range(40):
        windows, arcs = _random_pieces(rng)
        for level in range(4):
            levels = np.full(len(windows) + len(arcs), level)
            got = _kronrod_nodes(windows, arcs, levels)
            want = _kronrod_nodes_reference(windows, arcs, levels)
            for x, y in zip(got, want):
                assert x.shape == y.shape
                assert x.tobytes() == y.tobytes()

    # Horner on an array, on one point and on a scalar equals the original
    # at every point, wrapped angles included (window centers are evaluated
    # as one array).
    for n in (1, 7, 40, 128):
        a = rng.standard_normal(n + 1) + 1j * rng.standard_normal(n + 1)
        angles = np.concatenate((rng.uniform(0, 2 * np.pi, 50),
                                 rng.uniform(0, 0.1, 5) + 2 * np.pi))
        z = np.exp(1j * angles)
        values = eval_poly(a, z)
        assert values.tobytes() == _horner_reference(a, z).tobytes()
        for k, v in enumerate(values):
            assert v == _horner_reference(a, z[k])
            assert v == eval_poly(a, z[k])
            assert v == eval_poly(a, z[k:k + 1])[0]

    checked = {"groups": 0, "short": 0}
    for p, a, roots in _quadrature_oracle_cases():
        q = ce.polar_factor(ce.normalize_self_inversive(p).normalized).q
        calls = ((a, a, roots), (a, q, None))
        if p.degree < 128:
            calls += ((a, a, None),)
        with monkeypatch.context() as m:
            _spy_tail_cuts(m, checked)
            got = [ce.log_pair_quadrature(A, B, b_roots=r) for A, B, r in calls]
        with monkeypatch.context() as m:
            m.setattr(log_integrals, "_kronrod_nodes", _kronrod_nodes_reference)
            m.setattr(log_integrals, "_log_distance_sum", _log_distance_sum_reference)
            m.setattr(log_integrals, "eval_poly", _horner_reference)
            want = [ce.log_pair_quadrature(A, B, b_roots=r) for A, B, r in calls]
        assert [v.hex() for v in got] == [v.hex() for v in want], p.degree
    assert checked["groups"] > 20 and checked["short"] > 0, checked


def test_kronrod_quadrature_is_as_accurate_as_it_estimates(monkeypatch):
    # Against the uniform GL16 rule at level 5 on the same pieces, every
    # Kronrod value lies within tol, and its error within the K21 - G10
    # estimate.  The estimate cannot see rounding: on the wrapped cluster's
    # Jensen term it is 2e-15 while the value (21.8) is 8 ulps off, so the
    # second check allows 64 eps times the mean of |f|.
    kronrod_sum = log_integrals._kronrod_sum
    checked = []

    def kronrod_spy(f, window_pieces, arc_pieces, tol, max_depth):
        value, estimate = kronrod_sum(f, window_pieces, arc_pieces, tol, max_depth)
        pts, wts = _gl16_level_nodes(window_pieces, arc_pieces, 5)
        fv = f(pts)
        reference = float((fv * wts).sum()) / (2 * np.pi)
        mass = float((np.abs(fv) * wts).sum()) / (2 * np.pi)
        err = abs(value - reference)
        assert err <= tol, (value, reference, tol)
        assert err <= estimate + 64 * np.finfo(float).eps * mass, (err, estimate)
        checked.append(err / tol)
        return value, estimate

    monkeypatch.setattr(log_integrals, "_kronrod_sum", kronrod_spy)
    # at n = 4 and 6 q has no zero within the window width of the circle:
    # the Jensen integrand is one arc piece over the whole circle
    for n in (4, 6, 16, 32, 64, 128):
        p = random_circle_poly(n, instance_rng(38, n), unit_norm=True)
        a = p.coefficients
        ce.log_pair_quadrature(a, a, b_roots=p.roots)
        ce.log_pair_quadrature(a, ce.polar_factor(p).q)
    # n = 1, the wrapped cluster, repeated roots, the pair 1e-5 apart and
    # the zero of q 2.5e-7 off the circle
    for p, a, roots in list(_quadrature_oracle_cases())[:5]:
        q = ce.polar_factor(ce.normalize_self_inversive(p).normalized).q
        for B, r in ((a, roots), (q, None), (a, None)):
            ce.log_pair_quadrature(a, B, b_roots=r)
    for k in (0, 1, 2, 50):
        assert abs(h_fourier_quadrature(k) - float(h_fourier(k))) < 1e-9
    # at n = 1, q is a constant: no windows either
    assert len(checked) == 31, len(checked)
    # On these cases K21 is far more accurate than the G10 estimate says
    # (at most 2e-4 tol); returning the G10 value would not be.
    assert max(checked) < 1e-2, max(checked)


def test_zero_just_off_the_circle_is_windowed(monkeypatch):
    # q has a zero 5.97e-3 off the circle, beyond half the window width.
    # Without a window of its own it lies under a 0.149-rad arc panel, where
    # the K21 - G10 estimate misses: an error of 9.5e-9 against the call's
    # tolerance of 7.8e-9.
    p = random_circle_poly(12, instance_rng(105, 12, 452), unit_norm=True)
    kronrod_sum = log_integrals._kronrod_sum
    calls = []

    def kronrod_spy(f, window_pieces, arc_pieces, tol, max_depth):
        calls.append((len(window_pieces), tol))
        return kronrod_sum(f, window_pieces, arc_pieces, tol, max_depth)

    monkeypatch.setattr(log_integrals, "_kronrod_sum", kronrod_spy)
    jensen = ce.log_pair_quadrature(p.coefficients, ce.polar_factor(p).q)
    (windows, tol), = calls
    assert windows > 0
    assert abs(jensen - ce.ratio_functional(p).jensen_integral) <= tol


def test_kronrod_table_is_qk21():
    # K21 integrates x^d exactly through d = 31, the embedded G10 through 19,
    # and the G10 nodes and weights are numpy's Gauss-Legendre ones.
    x = _K21_NODES
    for d in range(32):
        exact = 0.0 if d % 2 else 2.0 / (d + 1)
        assert abs((_K21_WEIGHTS * x**d).sum() - exact) < 1e-15, d
        if d < 20:
            assert abs((_G10_WEIGHTS * x**d).sum() - exact) < 1e-15, d
    gauss_x, gauss_w = np.polynomial.legendre.leggauss(10)
    assert np.abs(x[_G10_WEIGHTS > 0] - gauss_x).max() < 1e-15
    assert np.abs(_G10_WEIGHTS[_G10_WEIGHTS > 0] - gauss_w).max() < 1e-15
    assert np.array_equal(_KG_WEIGHTS, _K21_WEIGHTS - _G10_WEIGHTS)


def test_entropy_quadrature_memory_is_blocked():
    # One (factors x nodes) matrix at n = 128 took a 131 MiB peak.
    p = random_circle_poly(128, instance_rng(37, 128), unit_norm=True)
    a = p.coefficients
    tracemalloc.start()
    try:
        ce.log_pair_quadrature(a, a, b_roots=p.roots)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20


_BLAS_THREAD_CASES = """
import circentropy as ce
from circentropy.corpus import instance_rng, random_circle_poly
for n, i in ((8, 2), (32, 0), (64, 2), (128, 0)):
    p = random_circle_poly(n, instance_rng(5, n, i), unit_norm=True)
    a = p.coefficients
    print(ce.log_pair_quadrature(a, a, b_roots=p.roots).hex(),
          ce.log_pair_quadrature(a, ce.polar_factor(p).q).hex())
"""


def test_quadrature_bits_do_not_depend_on_blas_threads():
    # Summing the weighted integrand with np.dot (BLAS ddot) gave different
    # last bits under one and two BLAS threads on these instances.
    src = os.path.dirname(os.path.dirname(os.path.abspath(ce.__file__)))
    outputs = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                   OMP_NUM_THREADS=threads, MKL_NUM_THREADS=threads)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        proc = subprocess.run([sys.executable, "-c", _BLAS_THREAD_CASES],
                              capture_output=True, text=True, env=env,
                              timeout=300, check=True)
        outputs.append(proc.stdout)
    assert len(outputs[0].split()) == 8
    assert outputs[0] == outputs[1]


def test_budget_exceeded():
    with pytest.raises(ce.BudgetExceeded):
        log_integrals._kronrod_sum(lambda t: np.abs(np.cos(t)), [],
                                   [(0.0, 2 * np.pi, 42)], 1e-30, 2)
