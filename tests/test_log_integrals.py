"""Tests for the spectral and quadrature evaluators of |A|^2 log|B|^2 integrals."""

import dataclasses
import math
import os
import subprocess
import sys
import tracemalloc

import mpmath
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
    _BLOCK,
    _ONE_PANEL_CUT,
    _S_CUT,
    _WINDOW,
    MAX_SERIES_DEGREE,
    _kronrod_panels,
    _lags,
)
from circentropy.cli import _newton_step
from circentropy.polycircle import (
    _polar_weights,
    as_coefficient_stack,
    eval_poly,
    poly_degree,
)


def _lags_of(A):
    """The lags of a coefficient list or stack, at its highest degree."""
    arr = as_coefficient_stack(A)
    return _lags(arr, poly_degree(arr))


def _lags_reference(A):
    """Reference autocorrelation in the mirrored layout: c_{-d}..c_d, and d.

    The same window product and row sum, written into the middle of an
    array whose negative half mirrors the positive one.
    """
    arr = np.atleast_1d(np.asarray(A, dtype=complex))
    nonzero = arr != 0
    if arr.ndim > 1 and not nonzero.any(axis=-1).all():
        raise ce.ZeroPolynomial("a zero row")
    nz = nonzero.reshape(-1, arr.shape[-1]).any(axis=0).nonzero()[0]
    if not nz.size:
        raise ce.ZeroPolynomial("the zero polynomial")
    deg = int(nz[-1])
    padded = np.zeros(arr.shape[:-1] + (2 * deg + 1,), dtype=complex)
    padded[..., : deg + 1] = arr[..., : deg + 1]
    c = np.empty_like(padded)
    lags = np.arange(deg + 1)
    windows = np.take(padded, lags[:, None] + lags, axis=-1)
    c[..., deg:] = (windows * np.conj(padded[..., None, : deg + 1])).sum(axis=-1)
    c[..., deg] = c[..., deg].real
    c[..., :deg] = np.conj(c[..., :deg:-1])
    return c, deg


def test_lags_match_reference_bit_for_bit():
    rng = instance_rng(32)
    for n in (0, 1, 2, 7, 20, 64, 128):
        a = rng.standard_normal(n + 1) + 1j * rng.standard_normal(n + 1)
        want, deg = _lags_reference(a)
        assert deg == n
        assert _lags_of(a).tobytes() == want[deg:].tobytes(), n
        # trailing zeros lower the degree and the lag count
        padded = np.concatenate((a, np.zeros(3)))
        assert _lags_of(padded).tobytes() == want[deg:].tobytes(), n
        # a stack whose rows have lower degree than the stack
        rows = rng.standard_normal((4, n + 1)) + 1j * rng.standard_normal((4, n + 1))
        for i in range(1, 4):
            rows[i, n + 1 - min(i, n):] = 0.0
        want, deg = _lags_reference(rows)
        got = _lags_of(rows)
        assert got.shape == (4, deg + 1)
        assert got.tobytes() == np.ascontiguousarray(want[:, deg:]).tobytes(), n
    stack = [random_circle_poly(128, instance_rng(33, i)).coefficients for i in range(3)]
    want, deg = _lags_reference(stack)
    assert _lags_of(stack).tobytes() == np.ascontiguousarray(want[:, deg:]).tobytes()


def test_lags_examples():
    assert np.allclose(_lags_of([1.0, 1.0]), [2, 1])
    assert np.allclose(_lags_of([1.0, -2.0, 1.0]), [6, -4, 1])
    c = _lags_of([0, 0, 0, 1.0])  # z^3
    assert c.size == 3 + 1  # nothing stored beyond lag 3
    assert c[0] == 1.0
    assert all(c[k] == 0 for k in (1, 2, 3))
    # the quadrature refuses a zero p
    with pytest.raises(ce.ZeroPolynomial, match=r"log\|B\|"):
        ce.log_pair_quadrature([0.0, 0.0], [0.0, 0.0], b_roots=[])


def test_lags_hermitian_and_pointwise():
    rng = instance_rng(30)
    a = rng.standard_normal(8) + 1j * rng.standard_normal(8)
    c = _lags_of(a)
    deg = c.size - 1
    assert c[0].imag == 0.0
    assert abs(c[0] - ce.parseval_norm(a)) < 1e-12
    # |A|^2 takes the lags -d..d, with c_{-k} = conj(c_k).
    full = np.concatenate((np.conj(c[:0:-1]), c))
    t = np.arange(1024) * (2 * np.pi / 1024)
    direct = np.abs(eval_poly(a, np.exp(1j * t))) ** 2
    k = np.arange(-deg, deg + 1)
    series = np.real(np.exp(1j * np.outer(t, k)) @ full)
    assert np.max(np.abs(series - direct)) < 1e-10 * np.max(direct)


def _polished_roots(b):
    """Companion-matrix roots of b, each polished by one Newton step, as
    coefficient input on the command line is."""
    return _newton_step(b, np.roots(b[::-1]))


def test_entropy_frozen_values():
    rf = ce.ratio_functional(ce.from_roots([-1.0]))  # 1 + z
    assert abs(rf.entropy_integral - 2.0) < 1e-14
    rf = ce.ratio_functional(ce.from_roots([1.0, 1.0]))  # (z - 1)^2
    assert abs(rf.entropy_integral - 14.0) < 1e-13
    assert abs(rf.jensen_integral - 7.0) < 1e-13


def test_entropy_quadrature_input_checks():
    with pytest.raises(ce.NonUnimodularRoot):
        ce.log_pair_quadrature([-2.0, 1.0], [-2.0, 1.0], b_roots=[2.0])
    # one given root per degree of p
    with pytest.raises(ValueError, match="expected 1"):
        ce.log_pair_quadrature([-1.0, 1.0], [-1.0, 1.0], b_roots=[1.0, -1.0])
    with pytest.raises(ValueError, match="expected 2"):
        ce.log_pair_quadrature([1, -2, 1], [1, -2, 1], b_roots=[1.0])
    with pytest.raises(ValueError, match="expected 2"):
        ce.log_pair_quadrature([1, -2, 1], [1, -2, 1], b_roots=[1.0, 1.0, 1.0])
    # given roots off the circle, or NaN, are refused
    with pytest.raises(ce.NonUnimodularRoot):
        ce.log_pair_quadrature([-1.0, 1.0], [-1.0, 1.0], b_roots=[2.0])
    with pytest.raises(ce.NonUnimodularRoot):
        ce.log_pair_quadrature([-1.0, 1.0], [-1.0, 1.0], b_roots=[np.nan])
    # the log series of h stops at its certified degree
    top = ce.from_angles(np.arange(MAX_SERIES_DEGREE + 1) * 0.1)
    with pytest.raises(ce.IllConditioned):
        ce.ratio_functional(top)


def test_entropy_quadrature_refuses_an_a_other_than_b(monkeypatch):
    # Given roots serve E alone, where A and B are both p; the check comes
    # before any quadrature.
    def never(*args, **kwargs):
        raise AssertionError("a quadrature ran")

    monkeypatch.setattr(log_integrals, "circle_quadrature", never)
    for a, b, roots in (([1.0, -2.0, 1.0], [-1.0, 1.0], [1.0]),
                        ([1.0, 1.0], [2.0, 2.0], [-1.0])):
        with pytest.raises(ValueError, match="same coefficients"):
            ce.log_pair_quadrature(a, b, b_roots=roots)


def test_log_pair_quadrature_matches_spectral_frozen():
    assert abs(ce.log_pair_quadrature([1, -2, 1], [1, -1]) - 7.0) < 1e-8


def _refused_jensen_inputs():
    # (A, B) pairs without roots where B is not the polar factor q of an A of
    # degree >= 1 with A(0) != 0.
    p = random_circle_poly(6, instance_rng(39, 6), unit_norm=True)
    a, q = p.coefficients, ce.polar_factor(p).q
    yield [1, 1], [1, 1]
    yield [1.0], [-1.0, 1.0]
    yield a, a  # the entropy term without its roots
    moved = q.copy()
    moved[2] = complex(np.nextafter(q[2].real, np.inf), q[2].imag)
    yield a, moved  # one coefficient of q one ulp off
    yield [0.0, 1.0, 1.0], [0.0, 0.5]  # A(0) = 0, B its (n - j)/n a_j
    # A Gaussian of degree n/2 against the q of a circle polynomial with a
    # multiple zero: the class that missed its tolerance or its node budget.
    for n in (16, 32, 64, 128):
        rng = instance_rng(7001, n)
        circle = random_circle_poly(n, rng, unit_norm=True, multiple=True)
        gaussian = rng.standard_normal(n // 2 + 1) + 1j * rng.standard_normal(n // 2 + 1)
        yield gaussian, ce.polar_factor(circle).q


def _never_find_roots(*args, **kwargs):
    raise AssertionError("roots were found")


def test_jensen_form_refuses_every_other_input(monkeypatch):
    # The check comes before any root finding.
    monkeypatch.setattr(log_integrals, "_aberth_roots", _never_find_roots)
    for a, b in _refused_jensen_inputs():
        with pytest.raises(ValueError, match="polar factor"):
            ce.log_pair_quadrature(a, b)


def test_route_agreement_random_sample():
    # through n = MAX_SERIES_DEGREE, where the log series of h must still hold
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
    # Past MAX_SERIES_DEGREE only the entropy term has both routes: the
    # quadrature has no degree limit, nor does the pairing on given roots.
    p = random_circle_poly(256, instance_rng(32, 256, 0), unit_norm=True)
    a = p.coefficients
    assert abs(log_integrals._pair_circle_roots(_lags(a, 256), a, 256, p.roots)
               - ce.log_pair_quadrature(a, a, b_roots=p.roots)) < 1e-7


def test_jensen_term_matches_mpmath_reference():
    # Suite instance (n=20, index 92, seed 42), where roots of q found by the
    # companion matrix drifted by 1.7e-7 N.  Frozen from highprec at 120 bits
    # when it integrated with mp.quad, a method independent of both routes;
    # highprec's exact pairing now reproduces it within 2.5e-26 N:
    #   p = random_circle_poly(20, instance_rng(42, 20, 92))
    #   ps = ce.normalize_self_inversive(p)
    #   entropy_values_mp(ps, bits=120)["jensen_term"]
    reference = 1877893431.41319991340869390634
    p = random_circle_poly(20, instance_rng(42, 20, 92))
    ps = ce.normalize_self_inversive(p)
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
    base, rot = ce.ratio_functional(p), ce.ratio_functional(rotated)
    assert abs(base.entropy_integral - rot.entropy_integral) < 1e-9
    assert abs(base.jensen_integral - rot.jensen_integral) < 1e-9


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
    # the value and its two integrals, each by the one spectral route
    assert [f.name for f in dataclasses.fields(rf)] == [
        "value", "entropy_integral", "jensen_integral"]


def test_log_continuity_along_coalescence():
    # perturbed values converge to the difference-form values on p itself
    p = ce.normalize_self_inversive(
        ce.from_roots([1.0, 1.0, np.exp(2j), np.exp(2j), np.exp(4.5j)])
    )
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
        p = ce.normalize_self_inversive(ce.from_roots([np.exp(0.4j)] * n))
        rf = ce.ratio_functional(p)
        assert math.isfinite(rf.value)
        assert math.isfinite(rf.entropy_integral)
        assert math.isfinite(rf.jensen_integral)


def _kronrod_panels_reference(table, panels):
    # Panel by panel from np.linspace, row by row of a piece table
    # (lo, hi, base panels, center, sign), sign 0 on an arc;
    # _kronrod_panels must reproduce its bytes.
    pts = []
    wts = []
    for (lo, hi, _, c, sign), count in zip(table, panels):
        edges = np.linspace(lo, hi, count + 1)
        half = (hi - lo) / (2.0 * count)
        mids = 0.5 * (edges[:-1] + edges[1:])
        x = mids[:, None] + half * _K21_NODES[None, :]
        if sign == 0:
            pts.append(x)
            wts.append(np.full((count, _K21_NODES.size), half))
        else:
            u = np.exp(-x)
            pts.append(c + sign * u)
            wts.append(half * u)
    return np.concatenate(pts), np.concatenate(wts)


def _window_rows(window_pieces):
    # Table rows of window pieces (center, sign, s0, s_cut): one base panel
    # below _ONE_PANEL_CUT, else panels at most 2.5 wide in s.
    rows = []
    for c, sign, s0, s_cut in window_pieces:
        base = 1 if s_cut < _ONE_PANEL_CUT else math.ceil((s_cut - s0) / 2.5)
        rows.append((s0, s_cut, base, c, sign))
    return np.array(rows, dtype=float).reshape(-1, 5)


def _arc_rows(arcs):
    # Table rows of arcs (a, b): panels at most 0.15 wide.
    return np.array([(a, b, max(1, int(math.ceil((b - a) / 0.15))), 0.0, 0.0)
                     for a, b in arcs], dtype=float).reshape(-1, 5)


def _layout_reference(singular_angles, s_cut_of=None):
    # The piece table of circle_quadrature from cluster records, (start,
    # end, centers) per chain of overlapping windows, each split at its
    # midpoints: window sides first, then arcs.  The one-pass layout must
    # reproduce its bytes.
    halfwidth = _WINDOW / 2.0
    angles = np.sort(np.mod(np.asarray(singular_angles, dtype=float), 2 * np.pi))
    keep = np.concatenate(([True], np.diff(angles) > 1e-12))
    if keep.sum() > 1 and (angles[keep][-1] - angles[keep][0]) >= 2 * np.pi - 1e-12:
        keep[np.nonzero(keep)[0][-1]] = False
    angles = np.sort(np.mod(angles[keep], 2 * np.pi))
    clusters = [[angles[0]]]
    for c in angles[1:]:
        if c - halfwidth <= clusters[-1][-1] + halfwidth:
            clusters[-1].append(c)
        else:
            clusters.append([c])
    if (len(clusters) > 1
            and clusters[0][0] + 2 * np.pi - halfwidth <= clusters[-1][-1] + halfwidth):
        clusters[-1].extend(c + 2 * np.pi for c in clusters.pop(0))
    clusters = [(g[0] - halfwidth, g[-1] + halfwidth, g) for g in clusters]
    if sum(end - start for start, end, _ in clusters) >= 2 * np.pi:
        raise ValueError(f"the windows of {angles.size} singular angles, {_WINDOW:g} wide "
                         "each, cover the whole circle")
    centers = np.array([c for _, _, group in clusters for c in group])
    if s_cut_of is None:
        s_cuts = [_S_CUT] * centers.size
    else:
        s_cuts = [min(_S_CUT, s) for s in s_cut_of(centers)]
    pieces, arcs = [], []
    used = 0
    for start, end, group in clusters:
        pts = [start] + [0.5 * (a + b) for a, b in zip(group[:-1], group[1:])] + [end]
        for i, c in enumerate(group):
            s_cut = s_cuts[used + i]
            for edge, sign in ((pts[i], -1.0), (pts[i + 1], 1.0)):
                span = abs(edge - c)
                if span <= 0:
                    continue
                s0 = -math.log(span)
                if s0 < s_cut:
                    pieces.append((c, sign, s0, s_cut))
        used += len(group)
    for idx, (_, end, _) in enumerate(clusters):
        nxt_start = clusters[(idx + 1) % len(clusters)][0]
        if idx + 1 == len(clusters):
            nxt_start += 2 * np.pi
        if nxt_start - end > 1e-12:
            arcs.append((end, nxt_start))
    return np.concatenate((_window_rows(pieces), _arc_rows(arcs)))


_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(16)


def _gl16_level_nodes(table, level):
    # The uniform 16-point Gauss-Legendre level rule that the Kronrod rounds
    # replaced, every panel of every piece doubled ``level`` times: the
    # accuracy reference.
    pts = []
    wts = []
    for s0, s_cut, _, c, sign in table[table[:, 4] != 0]:
        panels = max(2, int(math.ceil((s_cut - s0) / 2.5))) * 2**level
        edges = np.linspace(s0, s_cut, panels + 1)
        half = (s_cut - s0) / (2.0 * panels)
        mids = 0.5 * (edges[:-1] + edges[1:])
        s = (mids[:, None] + half * _GL_NODES[None, :]).ravel()
        u = np.exp(-s)
        pts.append(c + sign * u)
        wts.append(np.tile(_GL_WEIGHTS * half, panels) * u)
    for a, b, p0, _, _ in table[table[:, 4] == 0]:
        panels = int(p0) * 2**level
        edges = np.linspace(a, b, panels + 1)
        half = (b - a) / (2.0 * panels)
        mids = 0.5 * (edges[:-1] + edges[1:])
        pts.append((mids[:, None] + half * _GL_NODES[None, :]).ravel())
        wts.append(np.tile(_GL_WEIGHTS * half, panels))
    return np.concatenate(pts), np.concatenate(wts)


def _log_distance_sum_reference(t, angles):
    # The integrand term as one (angles x nodes) matrix of factors
    # e^{it} - e^{ia}: their products over eight angles at a time, one
    # log|.|^2 per product, and a node where some product underflows
    # summed factor by factor with the floor.
    factors = np.exp(1j * t)[None, :] - np.exp(1j * angles)[:, None]
    products = np.stack([factors[g : g + 8].prod(axis=0)
                         for g in range(0, angles.size, 8)])
    tiny = np.finfo(float).tiny
    sq = products.real * products.real + products.imag * products.imag
    out = np.sum(np.log(np.maximum(sq, tiny)), axis=0)
    low = (sq < tiny).any(axis=0)
    each = np.exp(1j * t[low])[:, None] - np.exp(1j * angles)
    out[low] = np.log(np.maximum(each.real * each.real + each.imag * each.imag,
                                 _LOG_FLOOR)).sum(axis=1)
    return out


def _log_distance_sum_direct(t, angles):
    # The form the kernel had before: one sine per (angle, node) element.
    dist2 = 4.0 * np.sin(0.5 * (t[None, :] - angles[:, None])) ** 2
    return np.sum(np.log(np.maximum(dist2, _LOG_FLOOR)), axis=0)


def _horner_reference(coeffs, z):
    # The original Horner loop, a new array per step.
    z = np.asarray(z, dtype=complex)
    acc = np.zeros_like(z)
    for c in np.asarray(coeffs, dtype=complex)[::-1]:
        acc = acc * z + c
    return acc


def _random_table(rng):
    # Window rows, then arc rows.
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
        arcs.append((a, a + length))
    return np.concatenate((_window_rows(windows), _arc_rows(arcs)))


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
    # The tail cut of every window center must be that of the original
    # evaluation, one center at a time.  ``checked`` counts the centers and
    # the cuts shorter than _S_CUT.
    quadrature = log_integrals.circle_quadrature

    def quadrature_spy(f, singular_angles=(), scale=1.0, s_cut_of=None):
        def s_cut_spy(centers):
            cuts = s_cut_of(centers)
            want = [s_cut_of(np.array([c]))[0] for c in centers]
            assert [min(_S_CUT, cut) for cut in cuts] == [min(_S_CUT, cut) for cut in want]
            checked["centers"] += len(centers)
            checked["short"] += sum(cut < _S_CUT for cut in cuts)
            return cuts

        return quadrature(f, singular_angles, scale=scale, s_cut_of=s_cut_spy)

    m.setattr(log_integrals, "circle_quadrature", quadrature_spy)


def test_quadrature_matches_unblocked_reference_bit_for_bit(monkeypatch):
    rng = instance_rng(35)
    for _ in range(40):
        table = _random_table(rng)
        for level in range(4):
            panels = table[:, 2].astype(int) << level
            got = _kronrod_panels(table, panels)
            want = _kronrod_panels_reference(table, panels)
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

    # The kernel equals its one-matrix reference at every block edge, with
    # nodes on a zero (summed factor by factor) in some blocks; a one-node
    # block would be summed pairwise.
    angles = rng.uniform(-np.pi, np.pi, 40)
    for size in (1, 2, _BLOCK - 1, _BLOCK, _BLOCK + 1, 2 * _BLOCK + 1, 3 * _BLOCK + 1):
        t = rng.uniform(0, 2 * np.pi, size)
        t[::700] = angles[: t[::700].size]
        got = log_integrals._log_distance_sum(t, angles)
        assert got.tobytes() == _log_distance_sum_reference(t, angles).tobytes(), size

    checked = {"centers": 0, "short": 0}
    for p, a, roots in _quadrature_oracle_cases():
        ps = ce.normalize_self_inversive(p)
        calls = ((a, a, roots), (ps.coefficients, ce.polar_factor(ps).q, None))
        with monkeypatch.context() as m:
            _spy_tail_cuts(m, checked)
            got = [ce.log_pair_quadrature(A, B, b_roots=r) for A, B, r in calls]
        with monkeypatch.context() as m:
            m.setattr(log_integrals, "_kronrod_panels", _kronrod_panels_reference)
            m.setattr(log_integrals, "_log_distance_sum", _log_distance_sum_reference)
            m.setattr(log_integrals, "eval_poly", _horner_reference)
            want = [ce.log_pair_quadrature(A, B, b_roots=r) for A, B, r in calls]
        assert [v.hex() for v in got] == [v.hex() for v in want], p.degree
    assert checked["centers"] > 20 and checked["short"] > 0, checked


def _layout_angle_sets(rng, count):
    # Edge sets, then chains of angles 1e-13 to 2e-2 apart, many around
    # 0/2pi, some shifted by 2pi either way; repeated angles, near-repeats
    # within 1e-12 (also across 2pi) and -1e-20 (np.mod takes it to 2pi).
    # Then sets whose windows cover the circle, or nearly.
    two_pi = 2 * np.pi
    yield np.array([-1e-20])
    yield np.array([-1e-20, 0.0, 3.0])
    yield np.array([1e-13, two_pi - 1e-13, 2.0])
    yield np.array([two_pi - 2e-12, -1e-20, 3.0])
    # Windows that touch to the last bits, next to each other and across 2pi.
    for a in rng.uniform(0, _WINDOW, 20):
        for b in (a + _WINDOW, a + two_pi - _WINDOW):
            for k in range(-3, 4):
                yield np.array([a, b + k * np.spacing(b), 3.0])
    for _ in range(count):
        size, extra, shift = rng.integers(0, 5, 3)
        c = rng.uniform(0, two_pi, size + 1)
        c[rng.random(size + 1) < 0.4] = rng.uniform(-0.02, 0.02)
        gaps = 10.0 ** rng.uniform(-13, math.log10(2e-2), (size + 1, 5))
        gaps[:, rng.integers(0, 6):] = np.inf  # a chain of 1 to 6 angles
        angles = (c[:, None] + np.concatenate((np.zeros((size + 1, 1)),
                                               np.cumsum(gaps, axis=1)), axis=1))
        angles = angles[np.isfinite(angles)]
        near = angles[rng.integers(0, angles.size)] + rng.uniform(-1e-12, 1e-12)
        angles = np.append(angles, (angles[0], near, near + two_pi, -1e-20)[extra:extra + 1])
        angles[rng.integers(0, angles.size)] += two_pi * (shift % 3 - 1)
        yield angles
    for n in (628, 629, 650, 699, 700):
        yield rng.uniform(0, 1) + two_pi * np.arange(n) / n


def _layout_cuts(centers):
    # Tail cuts from 10 to 40, past _S_CUT at the top, as functions of the
    # center alone.
    return 10.0 + 30.0 * np.mod(centers * 1e6, 1.0)


def _spy_tables(m):
    # Records the piece table of each circle_quadrature and integrates
    # nothing.
    laid = []
    m.setattr(log_integrals, "_kronrod_sum",
              lambda f, table, tol: laid.append(table) or (0.0, 0.0))
    return laid


def test_window_layout_matches_the_cluster_reference_bit_for_bit(monkeypatch):
    laid = _spy_tables(monkeypatch)

    def bits(table):
        return table.shape, table.dtype, table.tobytes()

    # Every set with tail cuts, every fourth also without.
    covered = 0
    for i, angles in enumerate(_layout_angle_sets(instance_rng(47), 10_000)):
        for s_cut_of in (_layout_cuts, None)[: 1 + (i % 4 == 0)]:
            try:
                want = _layout_reference(angles, s_cut_of)
            except ValueError as err:
                with pytest.raises(ValueError, match=str(err)):
                    ce.circle_quadrature(np.cos, angles, s_cut_of=s_cut_of)
                covered += 1
                continue
            ce.circle_quadrature(np.cos, angles, s_cut_of=s_cut_of)
            assert bits(laid.pop()) == bits(want), [a.hex() for a in angles]
    assert covered > 0


def test_piece_tables_concatenate_row_by_row(monkeypatch):
    # The tables of two layouts, one with a run of windows across 2pi and
    # tail cuts, one with angles repeated within 1e-12, concatenated: at any
    # levels each row's panels get the nodes and weights they get in their
    # own table, bit for bit.
    laid = _spy_tables(monkeypatch)
    ce.circle_quadrature(np.cos, [2 * np.pi - 3e-3, 1e-3, 2.0, 4.0], s_cut_of=_layout_cuts)
    ce.circle_quadrature(np.cos, [1.0, 1.0 + 5e-13, 1.0 + 4e-3, 3.0, 3.0 - 2e-13])
    one, two = laid
    assert (one[:, 3] > 2 * np.pi).any() and (one[:, 1] < _S_CUT).any()
    assert len(set(two[two[:, 4] != 0, 3])) == 3
    both = np.concatenate((one, two))
    rng = instance_rng(50)
    for _ in range(6):
        levels = rng.integers(0, 4, len(both))
        panels = both[:, 2].astype(int) << levels
        t, w = _kronrod_panels(both, panels)
        split = panels[: len(one)].sum()
        for table, part, rows in ((one, panels[: len(one)], slice(None, split)),
                                  (two, panels[len(one):], slice(split, None))):
            t_alone, w_alone = _kronrod_panels(table, part)
            assert t_alone.tobytes() == t[rows].tobytes()
            assert w_alone.tobytes() == w[rows].tobytes()


def test_angles_within_1e_12_across_2pi_are_one_center():
    # log|e^{it} - 1|^2 + log|e^{it} - e^{3i}|^2 has mean 0.
    def f(t):
        return log_integrals._log_distance_sum(t, np.array([0.0, 3.0]))

    value = ce.circle_quadrature(f, [0.0, 3.0])
    assert ce.circle_quadrature(f, [0.0, 2 * np.pi - 5e-13, 3.0]).hex() == value.hex()
    assert abs(value) < 1e-8


def test_windows_covering_the_circle_raise():
    with pytest.raises(ValueError, match="cover the whole circle"):
        ce.circle_quadrature(np.cos, 2 * np.pi * np.arange(700) / 700)


def test_log_distance_kernel_against_mpmath():
    # Nodes c +/- e^{-s}, s = 1, 3, ..., 37, and c exactly, around angles c
    # of the set, also shifted by 2pi (wrapped windows); repeated angles at
    # n = 16.  Against 50 digits, with the node and the angles taken as
    # exact binary values, the kernel errs by at most
    # C eps sum_j (1 + 1/|2 sin((t - a_j)/2)|): eps/d per sine near a zero
    # of distance d, and the rounding of log and of the sum.  C = 8; 2.0
    # measured at n = 128, where the direct sine form measured 4.1.  A
    # floored term (t == a exactly) adds its size, |log floor|, to the sum.
    # Distances below 1e-14 are only bounded below by the floor: a node a
    # few ulps from a zero can cancel to 0 (see the weight test below).
    eps = np.finfo(float).eps
    rng = instance_rng(39)
    twice = np.repeat(rng.uniform(0, 2 * np.pi, 4), 2)
    cases = (
        np.array([2.5]),
        np.concatenate((twice, rng.uniform(-np.pi, np.pi, 7), [1e-3])),
        np.angle(random_circle_poly(128, instance_rng(39, 128), unit_norm=True).roots),
    )
    log_floor = math.log(_LOG_FLOOR)
    u = np.exp(-np.arange(1.0, 38.0, 2.0))
    with mpmath.workdps(50):
        for angles in cases:
            centers = np.unique(angles[:4])[:2]
            t = np.concatenate([c + shift + sign * u for c in centers
                                for shift in (0.0, 2 * np.pi) for sign in (-1.0, 1.0)]
                               + [centers])
            got = log_integrals._log_distance_sum(t, angles)
            for tk, value in zip(t, got):
                dist = [abs(2 * mpmath.sin((mpmath.mpf(tk) - mpmath.mpf(a)) / 2))
                        for a in angles]
                far = [d for d in dist if d >= 1e-14]
                near = len(dist) - len(far)
                reference = float(mpmath.fsum(mpmath.log(d**2) for d in far))
                bound = 8 * eps * (sum(1 + 1 / float(d) for d in far)
                                   - near * log_floor)
                assert np.isfinite(value)
                if all(d == 0 or d >= 1e-14 for d in dist):
                    # t == a exactly is the floor, for each repeated angle
                    assert abs(value - (reference + near * log_floor)) <= bound, tk
                else:
                    assert value >= reference + near * log_floor - bound, tk


def test_log_distance_floor_only_at_negligible_weight():
    # Window nodes run down to |t - c| = e^{-37}, below an ulp of c, where
    # the kernel may cancel the distance to its own center to 0 (as the
    # direct form does when t rounds to c).  On full-length windows every
    # floored node lies within one ulp of its center, with a quadrature
    # weight of at most 1e-15 (5.0e-16 measured, at level 0), so the floor
    # moves an integral by less than 1e-15 * 147 * |A|^2 per node.
    rng = instance_rng(41)
    centers = np.concatenate((rng.uniform(0, 2 * np.pi, 40),
                              2 * np.pi + rng.uniform(0, 0.1, 8)))
    table = _window_rows([(c, sign, -math.log(0.005), _S_CUT)
                          for c in centers for sign in (-1.0, 1.0)])
    floored = 0
    for level in range(4):
        panels = table[:, 2].astype(int) << level
        t, w = _kronrod_panels(table, panels)
        row_centers = np.repeat(table[:, 3], panels)
        for c, t_row, w_row in zip(row_centers, t, w):
            hit = log_integrals._log_distance_sum(t_row, np.array([c])) <= math.log(_LOG_FLOOR)
            floored += hit.sum()
            assert np.all(np.abs(t_row[hit] - c) <= np.spacing(c))
            assert np.all(w_row[hit] <= 1e-15)
    assert floored > 0


def test_short_window_pieces_start_as_one_panel_with_no_floored_node(monkeypatch):
    # Below _ONE_PANEL_CUT no node of a one-panel window piece rounds onto
    # its center, for centers up to 2pi + 0.1 (wrapped windows) and starts
    # s0 from the window edge, -log 0.005, to -log 5e-13, the least half-gap
    # between two distinct centers.  The layout starts every window side
    # cut short of it as one panel, and full-length windows keep their 13.
    rng = instance_rng(49)
    centers = np.concatenate((rng.uniform(0, 2 * np.pi + 0.1, 60),
                              [0.0, 1e-3, np.pi, 2 * np.pi, 2 * np.pi + 0.1]))
    below = np.nextafter(_ONE_PANEL_CUT, 0.0)
    windows = []
    for c in centers:
        s0 = rng.uniform(-math.log(0.005), -math.log(5e-13), 4)
        s0[0], s0[1] = -math.log(0.005), -math.log(5e-13)
        for start in s0:
            for s_cut in (rng.uniform(start, _ONE_PANEL_CUT), below):
                windows.append((float(c), float(rng.choice([-1.0, 1.0])), start, s_cut))
    table = _window_rows(windows)
    t, _ = _kronrod_panels(table, np.ones(len(table), dtype=int))
    for (c, _, _, _), t_row in zip(windows, t):
        assert (log_integrals._log_distance_sum(t_row, np.array([c]))
                > math.log(_LOG_FLOOR)).all(), c
    # The layout's base panels: 1 on every side cut short of 34, 13 on the
    # outer side of a full-length window, from -log 0.005 to _S_CUT.
    laid = _spy_tables(monkeypatch)
    for cut in (below, _S_CUT):
        ce.circle_quadrature(np.cos, centers, s_cut_of=lambda c: np.full(c.size, cut))
    short, full = (table[table[:, 4] != 0] for table in laid)
    assert (short[:, 2] == 1).all()
    outer = full[np.abs(full[:, 0] + math.log(0.005)) < 1e-9]
    assert outer.size and (outer[:, 1] == _S_CUT).all() and (outer[:, 2] == 13).all()


def test_clustered_zeros_agree_with_the_spectral_route():
    # Clusters of 2 to 4 zeros spaced 1e-2, 1e-4 and 1e-6, at n = 8..64:
    # both quadratures lie within 1e-9 max(1, sum |a_j|^2) of the spectral
    # values; 4.1e-11 measured.
    rng = instance_rng(48)
    for n in (8, 16, 32, 64):
        for gap in (1e-2, 1e-4, 1e-6):
            for k in range(4):
                angles = rng.uniform(0, 2 * np.pi, n)
                angles[: 2 + k % 3] = angles[0] + gap * np.arange(2 + k % 3)
                p = ce.normalize_self_inversive(ce.from_angles(angles))
                a = p.coefficients
                rf = ce.ratio_functional(p)
                tol = 1e-9 * max(1.0, float(np.sum(np.abs(a) ** 2)))
                entropy = ce.log_pair_quadrature(a, a, b_roots=p.roots)
                jensen = ce.log_pair_quadrature(a, ce.polar_factor(p).q)
                assert abs(entropy - rf.entropy_integral) <= tol, (n, gap, k)
                assert abs(jensen - rf.jensen_integral) <= tol, (n, gap, k)


def test_log_distance_kernel_agrees_with_the_direct_sine_form(monkeypatch):
    # The two forms of the kernel give the same quadrature values on the
    # oracle cases within 1e-13 max(1, scale); 6.6e-16 max(1, scale)
    # (7.1e-15 absolute) measured.
    quadrature = log_integrals.circle_quadrature
    scales = []

    def quadrature_spy(f, singular_angles=(), scale=1.0, s_cut_of=None):
        scales.append(scale)
        return quadrature(f, singular_angles, scale=scale, s_cut_of=s_cut_of)

    monkeypatch.setattr(log_integrals, "circle_quadrature", quadrature_spy)
    for p, a, roots in _quadrature_oracle_cases():
        ps = ce.normalize_self_inversive(p)
        calls = ((a, a, roots), (ps.coefficients, ce.polar_factor(ps).q, None))
        for A, B, r in calls:
            got = ce.log_pair_quadrature(A, B, b_roots=r)
            with monkeypatch.context() as m:
                m.setattr(log_integrals, "_log_distance_sum", _log_distance_sum_direct)
                want = ce.log_pair_quadrature(A, B, b_roots=r)
            assert abs(got - want) <= 1e-13 * max(1.0, scales[-1])


def test_kronrod_quadrature_is_as_accurate_as_it_estimates(monkeypatch):
    # Against the uniform GL16 rule at level 5 on the same pieces, every
    # Kronrod value lies within tol, and its error within the K21 - G10
    # estimate.  The estimate cannot see rounding: on the wrapped cluster's
    # Jensen term it is 2e-15 while the value (21.8) is 8 ulps off, so the
    # second check allows 64 eps times the mean of |f|.
    kronrod_sum = log_integrals._kronrod_sum
    checked = []

    def kronrod_spy(f, table, tol):
        value, estimate = kronrod_sum(f, table, tol)
        pts, wts = _gl16_level_nodes(table, 5)
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
        ps = ce.normalize_self_inversive(p)
        ce.log_pair_quadrature(a, a, b_roots=roots)
        ce.log_pair_quadrature(ps.coefficients, ce.polar_factor(ps).q)
    for k in (0, 1, 2, 50):
        assert abs(h_fourier_quadrature(k) - float(h_fourier(k))) < 1e-9
    # at n = 1, q is a constant: no windows either
    assert len(checked) == 26, len(checked)
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

    def kronrod_spy(f, table, tol):
        calls.append((int((table[:, 4] != 0).sum()), tol))
        return kronrod_sum(f, table, tol)

    monkeypatch.setattr(log_integrals, "_kronrod_sum", kronrod_spy)
    jensen = ce.log_pair_quadrature(p.coefficients, ce.polar_factor(p).q)
    (windows, tol), = calls
    assert windows > 0
    assert abs(jensen - ce.ratio_functional(p).jensen_integral) <= tol


def _tail_cut_reference(amp_root, deg_a, sum_a, deg_b, budget):
    # The rule before unit steps and the Taylor bound: a first-order bound
    # on |A| only, with s = 10, 13, .., 34.
    s = 10.0
    while s < _S_CUT:
        u0 = math.exp(-s)
        amp = (amp_root + u0 * deg_a * sum_a) ** 2
        if 2.0 * amp * u0 * (2.0 * deg_b * (s + 2.0) + 160.0) <= budget:
            return s
        s += 3.0
    return _S_CUT


def test_tail_amplitude_bounds_and_cuts(monkeypatch):
    # At zeros of A, near them and at generic points, the dense-sampled sup
    # of |A(e^{it})| over |t - c| <= e^{-s} stays within the amplitude bound
    # at every s of the ladder, and no tail cut is later than the rule with
    # the first-order bound alone gave.
    quadrature = log_integrals.circle_quadrature
    seen = {}

    def quadrature_spy(f, singular_angles=(), scale=1.0, s_cut_of=None):
        seen.update(s_cut_of=s_cut_of, scale=scale, windows=len(singular_angles))
        return quadrature(f, singular_angles, scale=scale, s_cut_of=s_cut_of)

    monkeypatch.setattr(log_integrals, "circle_quadrature", quadrature_spy)
    rng = instance_rng(42, 12)
    x = np.linspace(-1.0, 1.0, 401)
    earlier = 0
    for n in (1, 7, 40, 128):
        circle = random_circle_poly(n, instance_rng(42, 12, n), unit_norm=True)
        gaussian = rng.standard_normal(n + 1) + 1j * rng.standard_normal(n + 1)
        for a, zeros in ((circle.coefficients, np.angle(circle.roots)),
                         (gaussian, np.angle(_polished_roots(gaussian)))):
            zeros = zeros[:12]
            centers = np.concatenate((zeros, zeros + 1e-9, zeros - 1e-6,
                                      zeros + 1e-3, rng.uniform(0, 2 * np.pi, 8),
                                      zeros[:2] + 2 * np.pi))
            amp = log_integrals._tail_amplitudes(a, centers)
            offsets = log_integrals._U_LADDER[:, None] * x
            for c, row in zip(centers, amp):
                sup = np.abs(eval_poly(a, np.exp(1j * (c + offsets)))).max(axis=1)
                assert np.all(sup <= row), (n, c)
            # The entropy form of the circle polynomial, and the Jensen form
            # of the Gaussian: B = A with its circle zeros given, or B = q.
            if a is circle.coefficients:
                deg_b = n
                ce.log_pair_quadrature(a, a, b_roots=circle.roots)
            else:
                deg_b = n - 1
                ce.log_pair_quadrature(a, _polar_weights(n)[0] * a[:n])
            cuts = seen["s_cut_of"](centers)
            budget = 1e-9 * max(1.0, seen["scale"]) / (8.0 * max(1, seen["windows"]))
            values = eval_poly(a, np.exp(1j * centers))
            for cut, v in zip(cuts, values):
                old = _tail_cut_reference(abs(complex(v)), n, float(np.abs(a).sum()),
                                          deg_b, budget)
                assert cut <= old
                earlier += cut < old
    assert earlier > 0


def _spy_windows(m):
    # Records the scale of each quadrature, and each window center's tail
    # cut, substitution pieces and the arc pieces that reach into its
    # window.
    quadrature = log_integrals.circle_quadrature
    kronrod_sum = log_integrals._kronrod_sum
    seen = {"scale": [], "centers": []}

    def quadrature_spy(f, singular_angles=(), scale=1.0, s_cut_of=None):
        def s_cut_spy(centers):
            cuts = s_cut_of(centers)
            seen["cuts"] = centers, [min(_S_CUT, cut) for cut in cuts]
            return cuts

        seen["scale"].append(scale)
        return quadrature(f, singular_angles, scale=scale, s_cut_of=s_cut_spy)

    def kronrod_spy(f, table, tol):
        hw = _WINDOW / 2.0
        windows, arc_rows = table[table[:, 4] != 0], table[table[:, 4] == 0]
        for c, cut in zip(*seen.pop("cuts")):
            pieces = windows[windows[:, 3] == c]
            arcs = [(a, b) for a, b, _, _, _ in arc_rows if a < c + hw and b > c - hw]
            seen["centers"].append((c, cut, pieces, arcs))
        return kronrod_sum(f, table, tol)

    m.setattr(log_integrals, "circle_quadrature", quadrature_spy)
    m.setattr(log_integrals, "_kronrod_sum", kronrod_spy)
    return seen


@pytest.mark.parametrize("d", [1e-3, 1e-6, 1e-9])
def test_zero_off_the_circle_takes_the_tail_amplitude_cut(monkeypatch, d):
    # p has two zeros 2 sqrt(d) apart around phi = 1.3, so q has one zero
    # about d off the circle there; its others lie more than 0.6 off.  That
    # zero's window's substitution stops where a given circle zero's would:
    # at the first s of the ladder where amp^2 weight <= budget, amp from
    # _tail_amplitudes, and no arc piece reaches into the window.  At
    # d = 1e-9 too the found zero only places a window; q is evaluated
    # whole.  Error/tolerance measured at most 9e-4.
    gap = 2.0 * math.sqrt(d)
    p = ce.normalize_self_inversive(
        ce.from_angles([1.3 - gap / 2, 1.3 + gap / 2, 3.0, 5.0]))
    a, q = p.coefficients, ce.polar_factor(p).q
    seen = _spy_windows(monkeypatch)
    value = ce.log_pair_quadrature(a, q)
    (scale,), ((c, cut, pieces, arcs),) = seen["scale"], seen["centers"]
    assert abs(c - 1.3) < gap
    budget = 1e-9 * max(1.0, scale) / 8.0
    ladder = log_integrals._S_LADDER
    weight = 2.0 * log_integrals._U_LADDER * (2.0 * (q.size - 1) * (ladder + 2.0) + 160.0)
    ok = log_integrals._tail_amplitudes(a, [c])[0] ** 2 * weight <= budget
    assert cut == (ladder[ok.argmax()] if ok.any() else _S_CUT)
    assert set(pieces[:, 1]) == {cut}
    assert arcs == []
    assert abs(value - ce.ratio_functional(p).jensen_integral) <= 1e-9 * max(1.0, scale)


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


def test_budget_exceeded(monkeypatch):
    # A budget of the nodes of 42, 84 and 168 panels: the fourth round would
    # pass it, so the call raises before evaluating f there.
    monkeypatch.setattr(log_integrals, "_MAX_NODES", 21 * 42 * (1 + 2 + 4))
    sizes = []

    def f(t):
        sizes.append(t.size)
        return np.abs(np.cos(t))

    with pytest.raises(ce.BudgetExceeded):
        log_integrals._kronrod_sum(f, _arc_rows([(0.0, 2 * np.pi)]), 1e-30)
    assert sizes == [21 * 42, 21 * 84, 21 * 168]


def test_quadrature_memory_is_bounded():
    # log|1 - e^{it}|^2 without a window at its zero: doubling the panels of
    # the whole circle never resolves the singularity to 1e-9, and without a
    # budget the rounds grew until memory ran out.
    sizes = []

    def f(t):
        sizes.append(t.size)
        return np.log(np.maximum(np.abs(1.0 - np.exp(1j * t)) ** 2, 1e-300))

    with pytest.raises(ce.BudgetExceeded):
        ce.circle_quadrature(f)
    assert 0 < sum(sizes) <= log_integrals._MAX_NODES < 2 * sum(sizes)


@pytest.mark.parametrize("A, B", [
    ([1.0, np.nan], [1.0, 2.0]),
    ([1.0], [1.0, np.inf]),
    ([1.0], [2.0, np.nan]),
    ([1.0], [1.0, 1.0, np.inf]),
], ids=["nan-in-A", "inf-in-B", "nan-in-B", "inf-on-top-of-B"])
def test_quadrature_refuses_non_finite_coefficients(A, B):
    # With roots given or not; the check comes first.
    for b_roots in (None, np.ones(len(B) - 1)):
        with pytest.raises(ValueError, match="finite"):
            ce.log_pair_quadrature(A, B, b_roots=b_roots)


def _meets_stop_bound(b, roots):
    """Whether |B(z)| <= 8 (n + 1) eps sum |b_k| |z|^k at every root, with B
    summed over the powers of z, or of 1/z in the reversed polynomial, as
    ``_aberth_roots`` sums it."""
    n = b.size - 1
    outer = np.abs(roots) > 1.0
    x = np.where(outer, 1.0 / roots, roots)
    coef = np.where(outer[:, None], b[::-1], b)
    powers = np.repeat(x[:, None], n + 1, axis=1)
    powers[:, 0] = 1.0
    np.multiply.accumulate(powers, axis=1, out=powers)
    value = np.abs((powers * coef).sum(axis=1))
    return value <= 8.0 * (n + 1) * np.finfo(float).eps * (np.abs(powers * coef)).sum(axis=1)


@pytest.mark.parametrize("n, index", [(16, 0), (16, 1), (32, 0), (32, 1), (64, 0),
                                      (64, 1), (128, 0), (128, 4)])
def test_found_roots_of_q_meet_the_stop_bound(n, index):
    # The polar factors q of the crosscheck benchmark's instances.  At
    # n = 128, index 4, q_0 is 7e-13.
    p = random_circle_poly(n, instance_rng(2401, n, index), unit_norm=True)
    q = ce.polar_factor(p).q
    body = q[: poly_degree(q) + 1]
    roots = log_integrals._aberth_roots(body)
    assert roots.shape == (body.size - 1,)
    assert np.all(np.isfinite(roots))
    assert np.all(_meets_stop_bound(body, roots))


def _assert_same_roots(found, want, tol):
    # A found root within tol of each wanted one, a different one for each.
    dist = np.abs(found[:, None] - want)
    assert found.shape == want.shape
    assert np.unique(dist.argmin(axis=0)).size == want.size
    assert np.all(dist.min(axis=0) <= tol)


def test_found_roots_match_the_companion_roots_when_well_conditioned():
    rng = instance_rng(31)
    for n in (1, 7, 16):
        b = np.zeros(n + 1, dtype=complex)
        b[0], b[n] = -(1.5 ** n), 1.0  # zeros 1.5 e^{2 pi i k / n}
        _assert_same_roots(log_integrals._aberth_roots(b), _polished_roots(b), 1e-12)
    gaussian = rng.standard_normal(9) + 1j * rng.standard_normal(9)
    _assert_same_roots(log_integrals._aberth_roots(gaussian), _polished_roots(gaussian),
                       1e-12)


def test_found_roots_at_the_edges():
    roots = log_integrals._aberth_roots
    assert roots(np.array([3.0 + 0j])).size == 0
    _assert_same_roots(roots(np.array([3.0, 2.0 + 0j])), np.array([-1.5 + 0j]), 1e-15)
    # (z - 1e-3)(z - 1e3): roots six orders of magnitude either side of 1.
    found = roots(np.array([1.0, -(1e3 + 1e-3), 1.0 + 0j]))
    _assert_same_roots(found, np.array([1e-3, 1e3 + 0j]), 1e-15 * np.array([1.0, 1e3]))
    # 1e300 + 1e-300 z: its root, -1e600, is no double, and the start circle
    # |b_0/b_1| overflows too; the approximation stays finite.
    assert np.all(np.isfinite(roots(np.array([1e300, 1e-300 + 0j]))))
    # (z - 1e3)(z^109 - 1): the 110th power of 1e3 overflows; powers of
    # 1/z do not.
    b = np.convolve([-1e3, 1.0], np.concatenate(([-1.0], np.zeros(108), [1.0])))
    _assert_same_roots(roots(b.astype(complex)),
                       np.append(np.exp(2j * np.pi * np.arange(109) / 109), 1e3), 1e-12)
    # (z - 1)^2 (z + 1): a double zero on the circle, uncertified but close.
    b = np.array([1.0, -1.0, -1.0, 1.0 + 0j])
    found = roots(b)
    assert np.all(np.isfinite(found))
    assert np.all(_meets_stop_bound(b, found))


@pytest.mark.parametrize("n", [16, 64, 128])
def test_found_roots_of_a_circle_polynomial_only_place_windows(monkeypatch, n):
    # The entropy term without its roots, (a, a), is neither form: it is
    # refused before any root finding.
    monkeypatch.setattr(log_integrals, "_aberth_roots", _never_find_roots)
    for i in range(3):
        p = random_circle_poly(n, instance_rng(2301, n, i), unit_norm=True)
        a = p.coefficients
        with pytest.raises(ValueError, match="polar factor"):
            ce.log_pair_quadrature(a, a)
