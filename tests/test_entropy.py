"""Tests for the h-Fourier data, moment identities, and the inequality reports."""

import json
import math
from fractions import Fraction

import numpy as np
import pytest

import circentropy as ce
from circentropy.corpus import instance_rng, random_binomial, random_circle_poly
from circentropy.entropy import GAP_TOL, telescoping_sums
from circentropy.polycircle import eval_poly, polar_factor


def test_h_fourier_closed_form():
    assert ce.h_fourier(0) == Fraction(2)
    assert ce.h_fourier(1) == Fraction(3, 2)
    assert ce.h_fourier(2) == Fraction(1, 3)
    assert ce.h_fourier(3) == Fraction(-1, 12)
    assert ce.h_fourier(-3) == ce.h_fourier(3)


def test_h_fourier_quadrature_residuals():
    for k in (0, 1, 2, 3, 7, 20):
        resid = abs(ce.h_fourier_quadrature(k) - float(ce.h_fourier(k)))
        assert resid < 1e-9


def test_h_fourier_absolute_summability():
    total = sum(abs(ce.h_fourier(k)) for k in range(2, 4000))
    assert total < Fraction(1, 2)  # tail of 2/(k(k^2-1)) telescopes to 1/2 at k=2


def test_h_partial_sums_uniform_bound():
    # the bound is attained at t = pi, so allow rounding slack
    t = np.arange(4096) * (2 * np.pi / 4096)
    h = ce.h_values(t)
    for L in (2, 5, 10, 50):
        partial = sum(float(ce.h_fourier(k)) * np.cos(k * t) for k in range(-L, L + 1))
        # 4 sum_{k>L} 1/(k(k^2-1)) telescopes to 2/(L(L+1)).
        tail = 4 * (Fraction(1, 4) - ce.telescoping_closed_form(L + 1))
        assert tail == Fraction(2, L * (L + 1))
        assert np.max(np.abs(h - partial)) <= float(tail) + 1e-12


def test_telescoping_identity():
    sums = dict(telescoping_sums(100))
    assert sums[2] == Fraction(0)
    assert sums[3] == Fraction(1, 6)
    assert ce.telescoping_closed_form(3) == Fraction(1, 4) - Fraction(1, 12)
    assert sums[100] == Fraction(1, 4) - Fraction(1, 19800)
    # the sums start at n = 2
    assert list(telescoping_sums(1)) == []


def test_moment_route_identities_frozen():
    n = 4
    p = ce.from_angles((np.pi + 2 * np.pi * np.arange(n)) / n)  # 1 + z^4
    seq = ce.moments(polar_factor(p))
    assert abs(ce.polar_term_via_moments(seq) - 2.0) < 1e-13
    assert abs(ce.norm_via_moments(seq) - 2.0) < 1e-13

    seq = ce.moments(polar_factor(ce.from_roots([1, -1], 1j)))
    assert abs(ce.polar_term_via_moments(seq) - 2.0) < 1e-13

    seq = ce.moments(polar_factor(ce.from_roots([1.0, 1.0])))
    assert abs(ce.polar_term_via_moments(seq) - 7.0) < 1e-13  # advisory: double zero
    assert abs(ce.norm_via_moments(seq) - 6.0) < 1e-13


def test_moment_formula_matches_ratio_functional():
    for n in (2, 5, 9, 14, 20):
        for i in range(10):
            p = random_circle_poly(n, instance_rng(40, n, i), unit_norm=True)
            d = polar_factor(p)
            assert d.simple_zeros
            seq = ce.moments(d)
            rf = ce.ratio_functional(p)
            norm = ce.parseval_norm(p)
            assert abs(rf.value - ce.polar_term_via_moments(seq)) < 1e-8 * norm
            assert abs(norm - ce.norm_via_moments(seq)) < 1e-9 * norm


def _mu_mass(p):
    # |1 + r|^2 = |p/q|^2 on the circle: twice the mass of (1/2)|1 + r|^2 dm.
    q = polar_factor(p).q

    def ratio(t):
        z = np.exp(1j * t)
        return np.abs(eval_poly(p.coefficients, z) / eval_poly(q, z)) ** 2

    return ce.circle_quadrature(ratio)


def test_mu_mass(separated):
    n = 5
    p = ce.from_angles((np.pi + 2 * np.pi * np.arange(n)) / n)
    assert abs(_mu_mass(p) - 2.0) < 1e-10
    assert abs(_mu_mass(ce.from_roots([1, -1], 1j)) - 2.0) < 1e-10
    for i in range(10):
        n = int(instance_rng(41, i).integers(2, 13))
        p = random_circle_poly(n, separated(instance_rng(41, i), n))
        assert abs(_mu_mass(p) - 2.0) < 1e-8


def test_verify_main_extremal_family():
    rep = ce.verify_main(random_binomial(7, instance_rng(42)))
    assert abs(rep.entropy - (1.0 - math.log(2.0))) < 1e-9
    assert abs(rep.main_gap) < 1e-9
    assert abs(rep.strengthened_gap) < 1e-9
    assert rep.extremal
    assert rep.inequalities_ok


@pytest.mark.parametrize("leading", [1e4, 1e6, 1e150])
def test_scaled_binomials_are_ok(leading):
    # z^n + omega times a large leading coefficient: equality cases whose
    # gaps round at about eps N, so only a tolerance relative to N holds.
    for n in (2, 20, 64, 128):
        polys = []
        for omega in (1.0, 1j, 0.6 + 0.8j):
            angles = (np.angle(-omega) + 2 * np.pi * np.arange(n)) / n
            polys.append(ce.from_angles(angles, leading))
        for p, rep in zip(polys, ce.verify_stack(ce.stack(polys))):
            assert rep.extremal, p.degree
            assert rep.status == "ok", (p.degree, p.coefficients[0])
            assert rep.gap_tolerance == GAP_TOL * rep.norm


def test_verify_main_double_zero():
    rep = ce.verify_main(ce.from_roots([1.0, 1.0]))
    assert abs(rep.entropy - 14.0) < 1e-10
    assert abs(rep.jensen_term - 7.0) < 1e-10
    assert abs(rep.polar_term - 7.0) < 1e-10
    assert abs(rep.gamma - 1.0) < 1e-12
    assert abs(rep.norm - 6.0) < 1e-12
    assert abs(rep.strengthened_bound - (7.0 + 6.0 * math.log(3.0))) < 1e-10
    assert abs(rep.strengthened_gap - (7.0 - 6.0 * math.log(3.0))) < 1e-10
    assert abs(rep.polar_gap) < 1e-10  # equality observed in the polar estimate
    assert not rep.extremal
    assert rep.moment_values_advisory


def test_verify_main_degree_one():
    rep = ce.verify_main(ce.from_roots([-1.0]))
    assert abs(rep.entropy - 2.0) < 1e-12
    assert abs(rep.entropy - rep.main_bound) < 1e-12
    assert rep.extremal
    assert rep.remainder == 0.0


def test_jensen_gap_values():
    assert abs(ce.verify_main(random_binomial(6, instance_rng(43))).jensen_gap) < 1e-9
    assert abs(ce.verify_main(ce.from_roots([-1.0])).jensen_gap) < 1e-12
    gap = ce.verify_main(ce.from_roots([1.0, 1.0])).jensen_gap
    assert abs(gap - (7.0 - 6.0 * math.log(3.0))) < 1e-10


def test_split_additivity_against_quadrature():
    # E and J by quadrature, polar term as the spectral difference
    for n in (2, 6, 11):
        p = random_circle_poly(n, instance_rng(44, n), unit_norm=True)
        rf = ce.ratio_functional(p)
        e_quad = ce.log_pair_quadrature(p.coefficients, p.coefficients,
                                        b_roots=p.roots)
        j_quad = ce.log_pair_quadrature(p.coefficients, ce.polar_factor(p).q)
        assert abs(e_quad - (j_quad + rf.value)) < 1e-8


def test_inequalities_on_mixed_corpus():
    for n in range(1, 13):
        for i in range(25):
            p = random_circle_poly(n, instance_rng(45, n, i),
                                   multiple=(n >= 2 and i % 5 == 0))
            rep = ce.verify_main(p)
            assert rep.main_gap >= -1e-9
            assert rep.strengthened_gap >= -1e-9
            assert rep.jensen_gap >= -1e-9
            assert rep.polar_gap >= -1e-9
            assert rep.inequalities_ok


def test_equality_classification_soundness():
    # extremal iff total gap below 1e-8 * N, on binomials and perturbations
    for i in range(30):
        rng = instance_rng(46, i)
        n = int(rng.integers(1, 11))
        p = random_binomial(n, rng)
        if i % 2 == 0:
            rep = ce.verify_main(p)
            assert rep.extremal
            assert rep.main_gap < 1e-8 * rep.norm
        else:
            if n < 2:
                continue
            pert = ce.perturb_roots(p, 1e-3)
            rep = ce.verify_main(pert)
            assert not rep.extremal
            assert rep.main_gap > 1e-8 * rep.norm


def test_report_round_trips_to_json():
    rep = ce.verify_main(ce.from_roots([1.0, 1.0]))
    doc = json.loads(json.dumps(rep.to_dict()))
    assert doc["degree"] == 2
    assert doc["routes"]["entropy"] == "spectral"
    assert set(doc) == set(rep.to_dict())


def test_verify_main_rejects_off_circle():
    good = ce.from_roots([1.0, -1.0])
    bad = ce.CirclePoly(good.coefficients.copy(), np.array([1.1, -1.0 + 0j]))
    with pytest.raises(ce.RootsOffCircle):
        ce.verify_main(bad)
