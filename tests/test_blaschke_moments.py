"""Tests for series division, the ratio series, the moment sequence, and the
Schur contraction."""

import numpy as np
import pytest

import circentropy as ce
from circentropy.blaschke_moments import series_divide
from circentropy.corpus import (
    instance_rng,
    random_binomial,
    random_circle_poly,
    random_schur_triple,
)
from circentropy.log_integrals import _lags
from circentropy.polycircle import TAU_EXPAND, eval_poly, polar_factor


def test_series_divide_examples():
    assert np.allclose(series_divide(1.0, [1.0, -1.0], 3), [1, 1, 1, 1])
    assert np.allclose(series_divide(1.0, [-1j], 2), [1j, 0, 0])
    with pytest.raises(ce.ZeroConstantTerm):
        series_divide(1.0, [0.0, 1.0], 2)


def test_series_inverse_convolution_identity():
    rng = instance_rng(20)
    for deg in (1, 4, 9):
        q = rng.standard_normal(deg + 1) + 1j * rng.standard_normal(deg + 1)
        q[0] += 3.0  # keep the constant term well away from zero
        inv = series_divide(1.0, q, 25)
        conv = np.convolve(q, inv)[:26]
        expected = np.zeros(26)
        expected[0] = 1.0
        assert np.max(np.abs(conv - expected)) < 1e-11


def test_series_divide_matches_inverse_route():
    rng = instance_rng(21)
    for deg in (1, 4, 9):
        num = rng.standard_normal(5) + 1j * rng.standard_normal(5)
        den = rng.standard_normal(deg + 1) + 1j * rng.standard_normal(deg + 1)
        den[0] += 3.0  # keep the constant term well away from zero
        direct = series_divide(num, den, 20)
        # the quotient times den gives num back through the order
        target = np.zeros(21, dtype=complex)
        target[: num.size] = num
        assert np.max(np.abs(ce.series_multiply(direct, den, 20) - target)) < 1e-11
        # and num/den is num times 1/den
        via_inverse = ce.series_multiply(num, series_divide(1.0, den, 20), 20)
        assert np.max(np.abs(direct - via_inverse)) < 1e-11


def _ratio_series(d, order):
    # r = q*/q = 1/h - 1; h_series runs through degree n, so r is exact
    # through degree n, and the moments take it through n - 1.
    r = series_divide(1.0, d.parent.h_series, order)
    r[0] = 0.0
    return r


def test_ratio_series_examples():
    n = 5
    p = ce.from_angles((np.pi + 2 * np.pi * np.arange(n)) / n)  # 1 + z^5
    r = _ratio_series(ce.polar_factor(p), n)
    assert np.max(np.abs(r - [0, 0, 0, 0, 0, 1.0])) < 1e-12

    r = _ratio_series(ce.polar_factor(ce.from_roots([1, -1], 1j)), 2)
    assert np.max(np.abs(r - [0, 0, -1.0])) < 1e-12

    # common factor cancels: qstar/q = z(z-1)(-1)/(1-z) = -z
    r = _ratio_series(ce.polar_factor(ce.from_roots([1.0, 1.0])), 2)
    assert np.max(np.abs(r - [0, -1.0, 0])) < 1e-12


def test_ratio_series_defining_property():
    for n in (3, 8, 14):
        d = polar_factor(random_circle_poly(n, instance_rng(22, n)))
        r = _ratio_series(d, n - 1)
        prod = ce.series_multiply(r, d.q, n - 1)
        scale = np.max(np.abs(d.q))
        assert r[0] == 0.0
        assert np.max(np.abs(prod - d.qstar[:n])) < 1e-11 * scale
        seq = ce.moments(d)
        assert seq.ratio_series_residual < 1e-13


def test_ratio_series_residual_detects_roots_that_disagree():
    # The residual compares r, built from the stored roots, with q and q*,
    # built from the coefficients; roots of another polynomial of the same
    # degree must show.
    p = random_circle_poly(6, instance_rng(29, 6))
    other = random_circle_poly(6, instance_rng(29, 6, 1))
    bad = ce.CirclePoly(p.coefficients.copy(), other.roots.copy())
    assert ce.moments(polar_factor(p)).ratio_series_residual < 1e-13
    assert ce.moments(polar_factor(bad)).ratio_series_residual > TAU_EXPAND
    assert ce.verify_main(bad).status == "violation:ratio_series"


def test_moments_frozen_examples():
    n = 6
    p = ce.from_angles((np.pi + 2 * np.pi * np.arange(n)) / n)  # 1 + z^6
    seq = ce.moments(ce.polar_factor(p))
    assert abs(seq.values[0] - 1.0) < 1e-14
    assert np.max(np.abs(seq.values[1:])) < 1e-14

    seq = ce.moments(ce.polar_factor(ce.from_roots([1.0, 1.0])))
    assert abs(seq.values[0] - 2.0) < 1e-14
    assert abs(seq.values[1] - 1.0) < 1e-14

    seq = ce.moments(ce.polar_factor(ce.from_roots([1, -1], 1j)))
    assert abs(seq.values[0] - 1.0) < 1e-14
    assert abs(seq.values[1]) < 1e-14


def test_moment_consistency_vanishing_and_bound():
    # M_1 = Gamma exactly (Parseval); the bound |M_k| <= Gamma has room
    # only for k >= 2.  M_n, M_{n+1}, ... vanish by construction (r_0 = 0),
    # so the series identity r q = q* is checked in their place.
    for n in range(2, 21, 3):
        for i in range(10):
            p = random_circle_poly(n, instance_rng(23, n, i), unit_norm=True)
            d = polar_factor(p)
            seq = ce.moments(d)
            assert abs(seq.values[0] - ce.parseval_norm(d.q)) < 1e-10
            gamma = ce.gamma_remainder(p)
            assert abs(seq.values[1] - gamma) < 1e-10
            assert abs(seq.values[1].imag) < 1e-12
            if d.simple_zeros:
                assert seq.ratio_series_residual <= TAU_EXPAND
                assert abs(seq.values[1] - gamma) <= 1e-9 * ce.parseval_norm(p)
                assert np.all(np.abs(seq.values[2:]) <= gamma + 1e-9)


def test_moments_keep_their_digits_where_zeros_cluster():
    # Zeros cluster on this instance: a division of q* by q loses about
    # 1e-9 of N here, the division by h keeps every identity near rounding.
    p = random_circle_poly(128, instance_rng(503, 128, 3), unit_norm=True)
    seq = ce.moments(polar_factor(p))
    norm = ce.parseval_norm(p)
    assert abs(norm - ce.norm_via_moments(seq)) <= 1e-13 * norm
    assert abs(seq.values[1] - ce.gamma_remainder(p)) <= 1e-13 * norm
    polar = ce.ratio_functional(p).value
    assert abs(polar - ce.polar_term_via_moments(seq)) <= 1e-13 * norm


def test_moments_match_quadrature(separated):
    for n in (3, 9, 15, 20):
        for i in range(5):
            p = random_circle_poly(n, separated(instance_rng(24, n, i), n),
                                   unit_norm=True)
            d = polar_factor(p)
            seq = ce.moments(d)
            quad = np.array([_moment_by_quadrature(d, k) for k in range(n)])
            assert np.max(np.abs(seq.values - quad)) < 1e-8


def _moment_by_quadrature(d, k):
    # M_k is the mean of |q|^2 r^k over the circle, with r = q*/q pointwise.
    def weighted_power(t):
        z = np.exp(1j * t)
        qv = eval_poly(d.q, z)
        return np.abs(qv) ** 2 * (eval_poly(d.qstar, z) / qv) ** k

    re = ce.circle_quadrature(lambda t: weighted_power(t).real)
    im = ce.circle_quadrature(lambda t: weighted_power(t).imag)
    return complex(re, im)


def _ratio_functional_reference(p):
    # One polynomial in 1-d numpy: the pairing on the given roots, and the
    # recurrence dividing h'/h by h (h_0 = 1), each summed in the order of
    # the stacked kernels.  np.dot sums the recurrence in another order and
    # misses by rounding on 20 of these instances.  numpy's log of a float64
    # scalar can round apart from its log of an array, as a stack's row
    # takes it, so the leading factor's log is taken on an array.
    n = p.degree
    a = p.coefficients
    c = _lags(a, n)
    m = np.arange(1, n + 1)
    taus = p.roots / np.abs(p.roots)
    sums = np.add.reduce(taus[:, None] ** m, axis=0)
    entropy_integral = (c[0].real * 2.0 * np.log(np.abs(a[n:]))[0]
                        - 2.0 * np.add.reduce(sums * (c[1:] / m)).real)
    h = p.h_series
    dlog = h[1:] * m
    for k in range(1, n):
        dlog[k] -= np.add.reduce(dlog[:k] * h[k:0:-1])
    value = -2.0 * (np.conj(dlog / m) * c[1:]).sum().real
    return value, entropy_integral, entropy_integral - value


def _oracle_instances():
    rng = instance_rng(28)
    for n in list(range(1, 41)) + [64, 128]:
        yield random_circle_poly(n, instance_rng(28, n), unit_norm=n % 2 == 0)
        if n >= 2:
            yield random_circle_poly(n, instance_rng(28, n, 1), multiple=True)
    for n in (1, 2, 7, 40):
        yield random_binomial(n, rng)
    # a pair 1e-5 apart
    yield ce.from_angles([1.0, 1.0 + 1e-5, 2.0, 3.5, 5.0])
    angles = rng.uniform(0, 2 * np.pi, 30)
    angles[1] = angles[0] + 1e-5
    yield ce.from_angles(angles)


def test_ratio_functional_matches_reference_bit_for_bit():
    for p in _oracle_instances():
        p = ce.normalize_self_inversive(p)
        rf = ce.ratio_functional(p)
        want = _ratio_functional_reference(p)
        got = (rf.value, rf.entropy_integral, rf.jensen_integral)
        assert [v.hex() for v in got] == [v.hex() for v in want], p.degree


def test_moments_json_metadata():
    d = polar_factor(random_circle_poly(4, instance_rng(25, 4)))
    doc = ce.moments(d).to_json_dict()
    assert doc["degree"] == 4
    assert doc["simple_zeros"] is True
    assert len(doc["moments"]) == 4
    assert 0.0 <= doc["ratio_series_residual"] < 1e-13


def test_schur_contraction_monomial_example():
    # phi = z, f = z: S_3(z^2) = 1/2 <= S_3(z) = 2
    rep = ce.schur_contraction_check([0.0], 1.0, [0, 1.0], 3)
    assert rep.s_n_f == 2.0
    assert abs(rep.s_n_phi_f - 0.5) < 1e-15
    assert rep.passed


def test_schur_contraction_unimodular_constant_is_equality():
    rng = instance_rng(26)
    f = rng.standard_normal(6) + 1j * rng.standard_normal(6)
    f[0] = 0.0
    gamma = np.exp(1.3j)
    rep = ce.schur_contraction_check([], gamma, f, 5)
    assert abs(rep.s_n_slack) < 1e-13
    assert abs(rep.min_partial_slack) < 1e-13
    assert rep.passed


def test_schur_contraction_random_triples():
    for i in range(300):
        zeros, gamma, f, n = random_schur_triple(instance_rng(27, i))
        rep = ce.schur_contraction_check(zeros, gamma, f, n)
        assert rep.s_n_slack >= -1e-12
        assert rep.min_partial_slack >= -1e-12
        assert rep.passed


def test_schur_contraction_input_validation():
    with pytest.raises(ce.ZeroOnBoundary):
        ce.schur_contraction_check([1.0], 1.0, [0, 1.0], 3)
    with pytest.raises(ValueError):
        ce.schur_contraction_check([0.1], 1.0, [1.0, 1.0], 3)
