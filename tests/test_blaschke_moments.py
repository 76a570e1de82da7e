"""Tests for the ratio series, the moment sequence, and the Schur contraction."""

import numpy as np
import pytest

import circentropy as ce
from circentropy.blaschke_moments import moments_by_quadrature, series_divide
from circentropy.corpus import (
    instance_rng,
    random_binomial,
    random_circle_poly,
    random_schur_triple,
)
from circentropy.polycircle import polar_factor


def test_series_inverse_examples():
    assert np.allclose(ce.series_inverse([1.0, -1.0], 3), [1, 1, 1, 1])
    assert np.allclose(ce.series_inverse([-1j], 2), [1j, 0, 0])
    with pytest.raises(ce.ZeroConstantTerm):
        ce.series_inverse([0.0, 1.0], 2)


def test_series_inverse_convolution_identity():
    rng = instance_rng(20)
    for deg in (1, 4, 9):
        q = rng.standard_normal(deg + 1) + 1j * rng.standard_normal(deg + 1)
        q[0] += 3.0  # keep the constant term well away from zero
        inv = ce.series_inverse(q, 25)
        conv = np.convolve(q, inv)[:26]
        expected = np.zeros(26)
        expected[0] = 1.0
        assert np.max(np.abs(conv - expected)) < 1e-11


def test_series_divide_matches_inverse_route():
    rng = instance_rng(21)
    num = rng.standard_normal(5) + 1j * rng.standard_normal(5)
    den = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    den[0] += 2.0
    direct = series_divide(num, den, 20)
    via_inverse = ce.series_multiply(num, ce.series_inverse(den, 20), 20)
    assert np.max(np.abs(direct - via_inverse)) < 1e-11


def test_blaschke_quotient_examples():
    n = 5
    p = ce.from_angles((np.pi + 2 * np.pi * np.arange(n)) / n)  # 1 + z^5
    r = ce.blaschke_quotient(ce.polar_factor(p))
    expected = np.zeros(r.coefficients.size)
    expected[n] = 1.0
    assert np.max(np.abs(r.coefficients - expected)) < 1e-12

    r = ce.blaschke_quotient(ce.polar_factor(ce.from_roots([1, -1], 1j)))
    expected = np.zeros(r.coefficients.size, dtype=complex)
    expected[2] = -1.0
    assert np.max(np.abs(r.coefficients - expected)) < 1e-12

    # common factor cancels: qstar/q = z(z-1)(-1)/(1-z) = -z
    r = ce.blaschke_quotient(ce.polar_factor(ce.from_roots([1.0, 1.0])))
    expected = np.zeros(r.coefficients.size, dtype=complex)
    expected[1] = -1.0
    assert np.max(np.abs(r.coefficients - expected)) < 1e-12


def test_ratio_series_defining_property():
    for n in (3, 8, 14):
        d = polar_factor(random_circle_poly(n, instance_rng(22, n)))
        r = ce.blaschke_quotient(d)
        prod = ce.series_multiply(r.coefficients, d.q, r.order)
        target = np.zeros(r.order + 1, dtype=complex)
        target[: d.qstar.size] = d.qstar
        scale = np.max(np.abs(d.q))
        assert abs(r.coefficients[0]) == 0.0
        assert np.max(np.abs(prod - target)) < 1e-11 * scale


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
    for n in range(2, 21, 3):
        for i in range(10):
            p = random_circle_poly(n, instance_rng(23, n, i), unit_norm=True)
            d = polar_factor(p)
            seq = ce.moments(d)
            m0 = float(seq.values[0].real)
            assert abs(seq.values[0] - ce.parseval_norm(d.q)) < 1e-10
            gamma = ce.gamma_remainder(p)
            assert abs(seq.values[1] - gamma) < 1e-10
            assert abs(seq.values[1].imag) < 1e-12
            if d.simple_zeros:
                # vanishing beyond the degree, bound below it
                assert np.max(np.abs(seq.over_range)) < 1e-8 * m0
                assert np.all(np.abs(seq.values[1:]) <= gamma + 1e-9)


def test_moments_match_quadrature():
    for n in (3, 9, 15, 20):
        for i in range(5):
            p = random_circle_poly(n, instance_rng(24, n, i), min_gap=0.05,
                                   unit_norm=True)
            d = polar_factor(p)
            seq = ce.moments(d)
            quad = moments_by_quadrature(d, n)
            assert np.max(np.abs(seq.values - quad)) < 1e-8


def _moments_reference(d, extra=6):
    # r expanded through 4n + 8, far past the n - 1 the products read.
    n = d.degree
    r = ce.blaschke_quotient(d, 4 * n + 8).coefficients
    q = np.zeros(n, dtype=complex)
    q[: d.q.size] = d.q
    vals = np.zeros(n + extra, dtype=complex)
    f = q.copy()
    vals[0] = np.vdot(q, f)
    for k in range(1, n + extra):
        f = ce.series_multiply(r, f, n - 1)
        vals[k] = np.vdot(q, f)
    return vals[:n], vals[n:]


def _ratio_functional_reference(p):
    # Each pairing builds the autocorrelation of p from its coefficients.
    n = p.degree
    a = p.coefficients
    entropy_integral = ce.log_pair_spectral(a, a, b_roots=p.roots)
    power_sums = (np.conj(p.roots)[:, None] ** np.arange(1, n + 1)).sum(axis=0)
    value = -ce.log_pair_spectral(a, np.concatenate(([n], power_sums)) / n)
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


def test_moments_and_ratio_functional_match_reference_bit_for_bit():
    for p in _oracle_instances():
        p = ce.normalize_self_inversive(p).normalized
        d = polar_factor(p)
        n = p.degree
        extra = 6 + n % 4
        seq = ce.moments(d, extra=extra)
        values, over_range = _moments_reference(d, extra)
        assert seq.truncation_order == n - 1
        assert seq.values.tobytes() == values.tobytes(), n
        assert seq.over_range.tobytes() == over_range.tobytes(), n
        # r_0 = 0 exactly, so r^k q truncated at degree n - 1 is exactly 0
        # for k >= n.
        assert not seq.over_range.any()

        rf = ce.ratio_functional(p)
        want = _ratio_functional_reference(p)
        got = (rf.value, rf.entropy_integral, rf.jensen_integral)
        assert [v.hex() for v in got] == [v.hex() for v in want], n


def test_moments_json_metadata():
    d = polar_factor(random_circle_poly(4, instance_rng(25, 4)))
    doc = ce.moments(d).to_json_dict()
    assert doc["degree"] == 4
    assert doc["simple_zeros"] is True
    assert len(doc["moments"]) == 4
    assert len(doc["over_range"]) == 6


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
